"""Quickstart: symbolically execute the paper's echo example (Figure 1).

Runs the same program three ways — plain symbolic execution, static state
merging with QCE, and dynamic state merging — and prints the paths, merges
and solver effort of each, plus the generated test inputs.

    python examples/quickstart.py
"""

from repro.engine import Engine, EngineConfig
from repro.env import ArgvSpec
from repro.lang import compile_program
from repro.qce import QceParams

ECHO = """
int main(int argc, char argv[][]) {
    int r = 1;
    int arg = 1;
    if (arg < argc) {
        if (strcmp(argv[arg], "-n") == 0) {
            r = 0; ++arg;
        }
    }
    for (; arg < argc; ++arg) {
        for (int i = 0; argv[arg][i] != 0; ++i)
            putchar(argv[arg][i]);
        if (arg + 1 < argc) putchar(' ');
    }
    if (r) putchar('\\n');
    return 0;
}
"""


def explore(module, spec, merging, similarity, strategy):
    config = EngineConfig(
        merging=merging,
        similarity=similarity,
        strategy=strategy,
        qce_params=QceParams(alpha=0.05, beta=0.8, kappa=10),
    )
    engine = Engine(module, spec, config)
    stats = engine.run()
    return engine, stats


def main() -> None:
    module = compile_program(ECHO, name="echo")
    # The paper's input model: N symbolic args of up to L bytes (§3.1).
    spec = ArgvSpec(n_args=2, arg_len=2)
    print(f"echo with N={spec.n_args} args x L={spec.arg_len} bytes "
          f"({spec.symbolic_byte_count()} symbolic bytes)\n")

    configs = [
        ("plain symbolic execution", "none", "never", "dfs"),
        ("static merging + QCE    ", "static", "qce", "topological"),
        ("dynamic merging + QCE   ", "dynamic", "qce", "coverage"),
    ]
    for label, merging, similarity, strategy in configs:
        engine, stats = explore(module, spec, merging, similarity, strategy)
        print(
            f"{label}: paths={stats.paths_completed:>4} "
            f"merges={stats.merges:>2} forks={stats.forks:>3} "
            f"queries={stats.queries:>4} "
            f"solver-cost={stats.cost_units:>5}"
        )

    # Show a few generated test cases from the last run.
    engine, _ = explore(module, spec, "none", "never", "dfs")
    print("\ngenerated tests (first 8):")
    for case in engine.tests.cases[:8]:
        shown = " ".join(repr(a.decode("latin1")) for a in case.argv[1:])
        print(f"  argv = [{shown}]")


if __name__ == "__main__":
    main()
