"""Pipelined test generation (:mod:`repro.engine.solve_helper`).

A sequential ``explore()`` ships the groups that miss the memo and the
corpus to one forked helper and fills each waiting test into its slot at
the join.  The **exactness law**: that is unobservable.  Pipelined and
in-process runs of the same input emit equal ``engine.tests.cases`` in
order, every field (``path_id`` included), equal coverage and paths, and
equal ``Stats`` apart from its seconds (``wall_time``, ``cpu_time``,
``time_total``) — on the corpus under three modes and on generated programs.  The in-process run
is the oracle: an engine with ``testgen_helper`` off, as every fleet
worker is.  The rest holds the helper to its hygiene (nothing alive or
open after a run) and its faults (timeout, a killed helper, a full
socket buffer).
"""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import os
import signal
import socket
import struct
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings

from repro import codec
from repro.engine import solve_helper, testgen
from repro.engine.executor import Engine, EngineConfig
from repro.env.argv import ArgvSpec
from repro.experiments.harness import MODES
from repro.expr import ops
from repro.lang import compile_program
from repro.memo import clear_memos
from repro.parallel.worker import make_worker_engine
from repro.programs.registry import PROGRAMS, get_program
from repro.solver.portfolio import SolverChain, SolverTimeout
from repro.stats import Stats

from minic_gen import minic_programs

pytestmark = pytest.mark.skipif(
    not solve_helper.helper_available(), reason="the solve helper needs fork"
)

# As the interpreter law caps them: seq and factor parse numbers, and
# link's 2x2 path space is thousands of paths.
CORPUS_DIMS = {"factor": (1, 1), "seq": (1, 1)}
MAX_STEPS = 5000


@pytest.fixture(autouse=True)
def eager(monkeypatch):
    """Fork at the first fresh solve, so every run here ships all of them
    (``test_default_threshold_*`` puts the default back)."""
    monkeypatch.setattr(solve_helper, "FORK_AFTER_S", 0.0)


def engine_for(program, mode, helper, dims=None, **config):
    info = get_program(program)
    n, length = dims or CORPUS_DIMS.get(program, (2, 2))
    cfg = EngineConfig(**MODES[mode], max_steps=MAX_STEPS, **config)
    engine = Engine(info.compile(), info.spec(n, length), cfg, program=program)
    engine.testgen_helper = helper
    return engine


def counters(stats: Stats) -> dict:
    out = stats.snapshot()
    del out["wall_time"], out["cpu_time"], out["time_total"]
    return out


class Forks:
    """Counts helper starts and group submissions."""

    def __init__(self, monkeypatch):
        self.started = self.submitted = 0
        start, submit = solve_helper.SolveHelper._start, solve_helper.SolveHelper.submit

        def counted_start(helper):
            self.started += 1
            return start(helper)

        def counted_submit(helper, *args):
            self.submitted += 1
            return submit(helper, *args)

        monkeypatch.setattr(solve_helper.SolveHelper, "_start", counted_start)
        monkeypatch.setattr(solve_helper.SolveHelper, "submit", counted_submit)


def run_both(make):
    """(pipelined engine, in-process engine), each from cold memos."""
    runs = []
    for helper in (True, False):
        clear_memos()
        engine = make(helper)
        engine.run()
        runs.append(engine)
    return runs


def assert_exact(piped: Engine, local: Engine) -> None:
    assert piped.tests.cases == local.tests.cases  # in order, every field
    assert all(type(c) is testgen.TestCase for c in piped.tests.cases)
    assert piped.coverage.covered == local.coverage.covered
    assert piped.stats.paths_completed == local.stats.paths_completed
    assert counters(piped.stats) == counters(local.stats)
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("mode", ["plain", "ssm-qce", "dsm-qce"])
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_pipelined_equals_in_process_on_corpus(monkeypatch, program, mode):
    forks = Forks(monkeypatch)
    piped, local = run_both(lambda helper: engine_for(program, mode, helper))
    assert_exact(piped, local)
    # Every group the run solved went to the one helper it forked.
    assert forks.submitted == local.stats.testgen_group_solves
    assert forks.started == (1 if forks.submitted else 0)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(source=minic_programs(control=True))
def test_pipelined_equals_in_process_on_generated_programs(source):
    module = compile_program(source)
    spec = ArgvSpec(n_args=2, arg_len=2)
    for mode in ("plain", "dsm-qce"):
        piped, local = run_both(lambda helper: _generated(module, spec, mode, helper))
        assert_exact(piped, local)


def _generated(module, spec, mode, helper):
    engine = Engine(module, spec, EngineConfig(**MODES[mode], max_steps=2000))
    engine.testgen_helper = helper
    return engine


def test_default_threshold_solves_here_first_then_ships(monkeypatch):
    """Under the default :data:`FORK_AFTER_S` the first solves run in the
    parent until the threshold, the rest in the helper — to the same
    suite and counters."""
    monkeypatch.setattr(solve_helper, "FORK_AFTER_S", 0.05)
    forks = Forks(monkeypatch)
    here, solve, parent = [], testgen.solve_group, os.getpid()

    def counted(group):
        if os.getpid() == parent:
            here.append(group)
        return solve(group)

    monkeypatch.setattr(testgen, "solve_group", counted)
    piped, local = run_both(lambda helper: engine_for("uniq", "dsm-qce", helper, dims=(3, 2)))
    assert_exact(piped, local)
    solves = local.stats.testgen_group_solves
    assert forks.submitted == solves
    assert solves < len(here) < 2 * solves  # some in the parent, the rest shipped
    assert forks.started == 1


def test_in_flight_duplicate_is_a_hit_answered_once():
    clear_memos()
    x = ops.bv_var("arg1_b0", 8)
    pc = (ops.ult(ops.bv(7, 8), x), ops.ult(x, ops.bv(90, 8)))
    want_model, want_cost = testgen.solve_group(list(pc))
    helper, stats = solve_helper.SolveHelper(), Stats()
    try:
        first = testgen.deterministic_model(pc, stats_sink=stats, helper=helper)
        # Nothing is sent for the second ask, so nothing is read either:
        # the group is still in flight.
        second = testgen.deterministic_model(pc, stats_sink=stats, helper=helper)
        assert type(first) is type(second) is testgen.PendingModel
        assert (stats.testgen_group_solves, stats.testgen_group_hits) == (1, 1)
        helper.join()
    finally:
        helper.close()
    assert first.resolve() == second.resolve() == want_model
    assert stats.testgen_cost_units == want_cost
    assert testgen._GROUP_MEMO[tuple(c.eid for c in pc)] == want_model
    clear_memos()


def test_cpu_time_counts_the_helper(monkeypatch):
    """``cpu_time`` is what the exploration cost, the helper's CPU too."""
    burn, solve = 0.05, testgen.solve_group

    def costly(group):
        end = time.process_time() + burn
        while time.process_time() < end:
            pass
        return solve(group)

    monkeypatch.setattr(testgen, "solve_group", costly)
    clear_memos()
    engine = engine_for("echo", "plain", True)
    own = time.process_time()
    engine.run()
    own = time.process_time() - own
    burned = engine.stats.testgen_group_solves * burn
    assert burned >= 0.3
    # The helper burned it, the parent did not; cpu_time has both.
    assert own < burned
    assert engine.stats.cpu_time >= burned


def test_join_drains_the_backlog_from_both_ends(monkeypatch):
    """At the join the parent solves the backlog from the back while the
    helper answers it from the front: every group settles to its own
    fresh model and cost, both sides solved some, the helper's CPU
    seconds come back, and no helper outlives the join."""
    burn, solve = 0.02, testgen.solve_group
    parent, here = os.getpid(), []

    def costly(group):
        if os.getpid() == parent:
            here.append(group)
        end = time.process_time() + burn
        while time.process_time() < end:
            pass
        return solve(group)

    monkeypatch.setattr(testgen, "solve_group", costly)
    x = ops.bv_var("arg1_b0", 8)
    groups = [[ops.ult(ops.bv(k, 8), x)] for k in range(16)]
    helper, stats = solve_helper.SolveHelper(), Stats()
    pendings = [testgen.Pending(("join", k)) for k in range(len(groups))]
    try:
        for pending, group in zip(pendings, groups):
            helper.submit(pending, group, stats)
        cpu = helper.join()
    finally:
        helper.close()
    answers = [solve(group) for group in groups]
    assert all(pending.done for pending in pendings)
    assert [pending.model for pending in pendings] == [model for model, _ in answers]
    assert stats.testgen_cost_units == sum(cost for _, cost in answers)
    assert 0 < len(here) < len(groups)
    assert cpu >= burn
    assert not multiprocessing.active_children()


@dataclasses.dataclass
class _NoConflictChain(SolverChain):
    conflict_budget: int | None = 0


@pytest.mark.parametrize("helper", [True, False])
def test_testgen_timeout_leaves_run_as_solver_timeout(monkeypatch, helper):
    """``seq 1x2`` ships a score of groups before the first that needs a
    conflict, which no test-generation solve is allowed here."""
    monkeypatch.setattr(testgen, "SolverChain", _NoConflictChain)
    clear_memos()
    engine = engine_for("seq", "plain", helper, dims=(1, 2))
    with pytest.raises(SolverTimeout):
        engine.run()
    ledger = engine.stats
    assert ledger.queries == ledger.sat_answers + ledger.unsat_answers + ledger.timeouts
    assert not multiprocessing.active_children()
    assert all(type(c) is testgen.TestCase for c in engine.tests.cases)
    # Nothing in flight stays filed in the memo.
    assert not any(type(v) is testgen.Pending for v in testgen._GROUP_MEMO.values())
    clear_memos()


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs procfs fd listing")
def test_runs_leave_no_child_and_no_fd(monkeypatch):
    forks = Forks(monkeypatch)
    clear_memos()
    engine_for("uniq", "plain", True).run()  # warm-up: imports, contexts
    before = _open_fds()
    for _ in range(3):
        clear_memos()
        engine_for("uniq", "plain", True).run()
    assert forks.started == 4
    assert not multiprocessing.active_children()
    assert _open_fds() <= before, f"fd leak: {before} -> {_open_fds()}"


def test_killed_helper_falls_back_to_the_same_suite(monkeypatch):
    """SIGKILL the helper after its third group: what it left unanswered
    and every later group are solved in-process, to the same answers."""
    local_solves, solve = [], testgen.solve_group
    parent = os.getpid()

    def counted(group):
        if os.getpid() == parent:
            local_solves.append(group)
        return solve(group)

    submit = solve_helper.SolveHelper.submit
    calls = []

    def killing_submit(helper, *args):
        calls.append(args)
        if len(calls) == 3:
            os.kill(helper.pid, signal.SIGKILL)
        return submit(helper, *args)

    monkeypatch.setattr(testgen, "solve_group", counted)
    monkeypatch.setattr(solve_helper.SolveHelper, "submit", killing_submit)
    piped, local = run_both(lambda helper: engine_for("uniq", "plain", helper))
    assert_exact(piped, local)
    solves = local.stats.testgen_group_solves
    assert len(calls) == solves > 3
    # The in-process run solved all of them here; the pipelined one the
    # groups from the killed helper's unanswered ones on.
    assert solves < len(local_solves) <= 2 * solves


def test_more_answers_than_a_socket_buffer_holds(monkeypatch):
    """Socket buffers at the kernel's minimum and a memo that forgets at
    once (every group a fresh solve): the answers outrun any buffer, and
    the run still finishes, because the parent reads whenever it sends."""
    real_pair = socket.socketpair

    def tiny_pair(*args):
        pair = real_pair(*args)
        for sock in pair:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1)
        return pair

    def hung(signum, frame):
        # Not an OSError: the helper's fault handling must not absorb it.
        raise AssertionError("the pipelined run deadlocked")

    # How many of the smallest answer frames fit before a send blocks.
    probe, _peer = tiny_pair()
    probe.setblocking(False)
    frame, room = bytes(4) + codec.dumps((None, 0, 0.0)), 0
    try:
        while True:
            probe.send(frame)
            room += 1
    except BlockingIOError:
        pass
    probe.close()
    _peer.close()

    monkeypatch.setattr(socket, "socketpair", tiny_pair)
    monkeypatch.setattr(testgen._GROUP_MEMO, "bound", 1)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        piped, local = run_both(lambda helper: engine_for("uniq", "plain", helper))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_exact(piped, local)
    assert piped.stats.testgen_group_solves > 4 * room
    clear_memos()


def test_fleet_workers_and_hosts_without_fork_solve_in_process(monkeypatch):
    info = get_program("echo")
    worker = make_worker_engine("echo", info.compile(), info.spec(), EngineConfig())
    assert worker.testgen_helper is False
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert not solve_helper.helper_available()

    def no_pair(*args):
        raise AssertionError("a helper was started on a host without fork")

    monkeypatch.setattr(socket, "socketpair", no_pair)
    piped, local = run_both(lambda helper: engine_for("echo", "plain", helper))
    assert_exact(piped, local)
    assert piped.stats.testgen_group_solves > 0


# -- frames: the helper's stream carries the wire's frame -----------------------


def test_an_oversized_answer_frame_is_refused_by_name():
    """The parent reads an answer's length before it buffers toward it."""
    helper = solve_helper.SolveHelper()
    helper._buf += struct.pack(">I", codec.MAX_FRAME + 1)
    with pytest.raises(codec.DecodeError, match="oversized frame"):
        helper._parse()


def test_the_helper_refuses_an_oversized_group_frame_by_name(monkeypatch):
    """... and the helper reads a group's length before it reads toward it.
    (Run in this process: SIGINT and the collector are left as they are.)"""
    monkeypatch.setattr(signal, "signal", lambda *args: None)
    monkeypatch.setattr(gc, "freeze", lambda: None)
    ours, theirs = socket.socketpair()
    parent_end, spare = socket.socketpair()
    ours.sendall(struct.pack(">I", codec.MAX_FRAME + 1))
    ours.close()  # EOF after the header: a helper that read on would not block
    try:
        with pytest.raises(codec.DecodeError, match="oversized frame"):
            solve_helper._helper_main(theirs, parent_end)
    finally:
        spare.close()


def test_a_sequential_run_does_not_import_the_remote_package():
    """The helper frames with :mod:`repro.codec`: importing
    :mod:`repro.remote` would cost every sequential run about 45 ms."""
    code = (
        "import sys\n"
        "from repro.engine import solve_helper\n"
        "from repro.env.runner import run_symbolic\n"
        "solve_helper.FORK_AFTER_S = 0.0\n"
        "run_symbolic('wc', generate_tests=True)\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.remote')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=120, cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]
