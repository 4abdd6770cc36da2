"""CLI for the remote exploration service.

Usage::

    # Join a campaign as a worker (run on any host with this repo):
    python -m repro.remote worker --connect 192.0.2.10:45671

    # Drive a campaign, listening for external workers:
    python -m repro.remote campaign wc --workers 2 --listen 0.0.0.0:45671

    # Drive a campaign with spawned loopback workers (smoke test):
    python -m repro.remote campaign wc --workers 2

    # Durable campaign: checkpoint to a store, resume after a crash:
    python -m repro.remote campaign wc --workers 2 --store corpus.sqlite
    python -m repro.remote campaign --resume c1a2b3c4 --store corpus.sqlite
"""

from __future__ import annotations

import argparse
import sys


def _host_port(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {value!r}"
        )
    return host or "127.0.0.1", int(port)


def _chaos_kill(value: str) -> tuple[str, int]:
    event, sep, nth = value.rpartition(":")
    if not sep or not nth.isdigit():
        raise argparse.ArgumentTypeError(f"expected EVENT:N, got {value!r}")
    return event, int(nth)


def _print_result(program: str, result) -> None:
    extra = ""
    if result.campaign_id:
        extra = (
            f" campaign={result.campaign_id} epoch={result.checkpoint_epoch}"
        )
        if result.resumed_epoch is not None:
            extra += (
                f" resumed_from={result.resumed_epoch}"
                f" restored={result.restored_partitions}"
            )
    print(
        f"{program}: workers={result.workers} paths={result.paths} "
        f"tests={len(result.tests.cases)} coverage={result.coverage_blocks} "
        f"partitions={result.partitions} steals={result.steals} "
        f"requeues={result.requeue_count} "
        f"dropped={len(result.dropped_partitions)} "
        f"workers_lost={result.workers_lost} "
        f"wall={result.wall_time:.2f}s{extra}"
    )
    if result.store_warning:
        print(f"warning: {result.store_warning}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.remote",
        description="Socket-transport exploration workers and campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    worker = sub.add_parser("worker", help="connect to a coordinator and serve")
    worker.add_argument("--connect", type=_host_port, required=True,
                        metavar="HOST:PORT",
                        help="coordinator listen address")
    worker.add_argument("--heartbeat", type=float, default=0.5, metavar="SECS",
                        help="heartbeat interval (default 0.5)")
    worker.add_argument("--retry-max", "--retries", dest="retry_max",
                        type=int, default=5, metavar="N",
                        help="dial attempts (exponential backoff + jitter) "
                             "while the coordinator comes up — and again "
                             "when re-dialing one that crashed mid-campaign "
                             "and is being resumed (default 5)")

    campaign = sub.add_parser("campaign",
                              help="run one program over socket workers")
    campaign.add_argument("program", nargs="?",
                          help="corpus program name (e.g. wc); omit with "
                               "--resume (the record names it)")
    campaign.add_argument("--workers", type=int, default=2)
    campaign.add_argument("--listen", type=_host_port, default=("127.0.0.1", 0),
                          metavar="HOST:PORT",
                          help="bind address (default 127.0.0.1, ephemeral)")
    campaign.add_argument("--external", action="store_true",
                          help="wait for external `repro.remote worker` "
                               "connections instead of spawning local ones")
    campaign.add_argument("--accept-timeout", type=float, default=300.0,
                          metavar="SECS",
                          help="how long to wait for workers to connect")
    campaign.add_argument("--store", metavar="PATH",
                          help="persistent store file; enables campaign "
                               "checkpointing (and cross-run warm starts)")
    campaign.add_argument("--campaign-id", metavar="ID",
                          help="campaign identity for checkpoints (default: "
                               "generated; printed at start)")
    campaign.add_argument("--resume", metavar="ID",
                          help="continue the named campaign from its newest "
                               "checkpoint in --store")
    campaign.add_argument("--checkpoint-every", type=int, default=1,
                          metavar="N",
                          help="checkpoint after every Nth accepted "
                               "partition (default 1; requeue/steal/drain "
                               "checkpoints always fire)")
    # Hidden chaos knob for the crash-recovery CI job: SIGKILL this
    # process (the coordinator) at the Nth occurrence of a fault event
    # ("split", "start", "done", "drain") — a real kill -9, after which
    # the campaign must be resumable.
    campaign.add_argument("--chaos-kill", type=_chaos_kill, metavar="EVENT:N",
                          help=argparse.SUPPRESS)

    args = parser.parse_args(argv)

    if args.command == "worker":
        from .client import remote_worker_main

        host, port = args.connect
        return remote_worker_main(host, port, heartbeat_interval=args.heartbeat,
                                  retries=args.retry_max)

    # campaign
    host, port = args.listen
    if args.external and port == 0:
        campaign.error("--external needs an explicit --listen HOST:PORT "
                       "(workers must know where to connect)")
    if args.resume and not args.store:
        campaign.error("--resume needs --store (checkpoints live there)")
    if args.resume and args.program:
        campaign.error("--resume takes no program (the record names it)")
    if not args.resume and not args.program:
        campaign.error("a program name is required (unless --resume)")
    if args.external:
        print(f"listening on {host}:{port}; start workers with: "
              f"python -m repro.remote worker --connect {host}:{port}")

    overrides = dict(
        workers=args.workers,
        socket_host=host,
        socket_port=port,
        spawn_workers=not args.external,
        accept_timeout=args.accept_timeout,
        checkpoint_every=args.checkpoint_every,
    )

    if args.resume:
        from ..campaign import CampaignNotFound, RecordError, resume_campaign

        try:
            result = resume_campaign(args.store, args.resume,
                                     overrides=overrides)
        except (CampaignNotFound, RecordError) as exc:
            print(f"repro.remote campaign: {exc}", file=sys.stderr)
            return 1
        result.check_ledger()
        _print_result(result.program, result)
        return 0

    from ..engine.executor import EngineConfig
    from ..parallel import Coordinator, ParallelConfig
    from ..programs.registry import get_program

    campaign_id = None
    if args.store:
        from ..campaign import new_campaign_id

        campaign_id = args.campaign_id or new_campaign_id()
        print(f"campaign {campaign_id} (resume with: python -m repro.remote "
              f"campaign --resume {campaign_id} --store {args.store})")
    elif args.campaign_id:
        campaign.error("--campaign-id needs --store (checkpoints live there)")

    parallel = ParallelConfig(
        backend="socket", campaign_id=campaign_id, **overrides
    )
    spec = get_program(args.program).spec()
    config = EngineConfig(store_path=args.store)
    coordinator = Coordinator(args.program, spec, config, parallel)
    if args.chaos_kill:
        import os
        import signal

        event_name, nth = args.chaos_kill
        seen = [0]

        def chaos(ev, wid, transport, pid=None):
            if ev == event_name:
                seen[0] += 1
                if seen[0] == nth:
                    os.kill(os.getpid(), signal.SIGKILL)

        coordinator.fault_injector = chaos
    result = coordinator.run()
    result.check_ledger()
    _print_result(args.program, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
