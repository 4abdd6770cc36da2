"""The fault-schedule law of the campaign state machine.

:class:`repro.parallel.state.CampaignState` has no socket, clock or
store inside, so this file generates what a campaign can live through —
grants, starts, progress, completions, steal replies, process crashes,
lease timeouts on workers that are in fact alive (zombies that keep
talking), checkpoints, and coordinator restarts from a checkpoint with a
fresh fleet — in any interleaving, and holds the state after every event
to a from-scratch oracle.

The world is abstract: a partition is a *bag of path ids* (its snapshot
is the JSON list), exploring a path yields the id as its "test", and a
worker's cumulative stats count the ids it explored (``paths_completed``)
and a per-id cost (``queries`` — the sum says *which* ids).  The oracle
knows nothing of pids, deltas or leases-as-objects: it moves bags between
a pool, the workers holding them and the accepted set, by the protocol's
rules.

Invariants, checked after every event:

* **conservation** — accepted ids, queued bags, and each lease's bag (or,
  once it answered a steal, its interim ids plus retained bags) partition
  the id space: every id exactly once, except ids of subtrees dropped by
  name (poison guard) — and the poison count survives a resume;
* **ledger** — ``streamed_paths`` and every worker's ledger entry equal
  the sums over exactly the ids accepted from that worker;
* **quiescence** — no in-flight steal outlives its lease;
* **checkpoints fold a copy** — ``to_record`` leaves the live state
  untouched, and its record alone conserves the id space;
* **resume identity** — driven to completion from any point (teardown),
  the campaign has accepted every id exactly once, whatever was
  checkpointed, crashed or resumed on the way.

The mutants at the bottom are the law's own regression test: each breaks
one line of the state machine and must be caught.
"""

import copy
import dataclasses
import json
import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, Phase, Verbosity, seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.campaign import CampaignRecord
from repro.parallel import Partition
from repro.parallel.state import (
    CHECKPOINT,
    FENCE,
    SEND_CMD,
    SEND_TASK,
    CampaignState,
)
from repro.parallel.wire import (
    CMD_STEAL,
    MSG_DONE,
    MSG_START,
    MSG_STATS,
    MSG_STOLEN,
    TASK_PARTITION,
    TASK_STOP,
)
from repro.sched import PartitionScheduler
from repro.stats import Stats

def row(pid: int, snapshot: bytes, origin: str) -> tuple:
    """One Partition row (its fields in order) rooted at main/entry."""
    return (pid, snapshot, origin, 1, "main", "entry", 1)


def blob(ids) -> bytes:
    return json.dumps(sorted(ids)).encode()


def bag(snapshot: bytes) -> frozenset:
    return frozenset(json.loads(snapshot))


def cost(path_id: int) -> int:
    return 2 ** path_id  # sums of distinct costs identify the set of ids


def coverage(ids) -> set:
    return {("main", f"b{i}") for i in ids}


def chunks(ids, pieces: int) -> list[list[int]]:
    """``ids`` dealt into at most ``pieces`` non-empty bags."""
    ids = sorted(ids)
    out = [ids[k::pieces] for k in range(pieces)]
    return [c for c in out if c]


class Process:
    """The simulated worker process behind one wid of one fleet."""

    def __init__(self):
        self.running = True
        self.explored: list[int] = []  # cumulative, what its stats count
        self.task = None  # {"pid", "todo": set, "done": list, "started": bool}
        self.steal_request = None

    def stats(self):
        return Stats(states_created=0, paths_completed=len(self.explored),
                     queries=sum(cost(i) for i in self.explored))

    def explore(self, count: int) -> None:
        for _ in range(min(count, len(self.task["todo"]))):
            path_id = min(self.task["todo"])
            self.task["todo"].remove(path_id)
            self.task["done"].append(path_id)
            self.explored.append(path_id)


class Oracle:
    """What the campaign must look like, by the protocol's rules alone."""

    def __init__(self, max_requeues: int):
        self.max_requeues = max_requeues
        self.pool: dict[frozenset, int] = {}  # queued bag -> revocations charged
        self.held: dict[int, dict] = {}  # wid -> {"bag", "charge", "residual"}
        self.fenced: set[int] = set()
        self.accepted: Counter = Counter()
        self.by_worker: dict[str, list[int]] = {}
        self.dropped: list[frozenset] = []
        self.requeued = 0
        self.lost = 0

    def begin(self, wids) -> None:
        self.held, self.fenced = {}, set()
        for wid in wids:
            self.by_worker[f"worker-{wid}"] = []

    def grant(self, wid: int, ids: frozenset) -> None:
        assert ids in self.pool, f"granted a bag nobody queued: {sorted(ids)}"
        self.held[wid] = {"bag": ids, "charge": self.pool.pop(ids), "residual": None}

    def discards(self, msg) -> bool:
        kind, wid = msg[0], msg[1]
        if wid in self.fenced:
            return True
        if kind == MSG_STATS:
            return False
        return wid not in self.held

    def accept(self, wid: int, ids) -> None:
        self.accepted.update(ids)
        self.by_worker[f"worker-{wid}"].extend(ids)

    def release(self, wid: int, charge: int) -> None:
        """The lease fold, on bags: what was accepted stays, the rest is
        queued again — or dropped once its lineage is charged too often."""
        lease = self.held.pop(wid)
        rest = [lease["bag"]]
        if lease["residual"] is not None:
            interim, rest = lease["residual"]
            self.accept(wid, interim)
        count = lease["charge"] + charge
        if count > self.max_requeues:
            self.dropped.extend(rest)
            return
        self.requeued += charge * len(rest)
        for ids in rest:
            self.pool[ids] = count

    def resume(self, epoch: int) -> None:
        for wid in list(self.held):
            self.release(wid, charge=0)
        self.by_worker = {
            (name if "@e" in name else f"{name}@e{epoch}"): ids
            for name, ids in self.by_worker.items()
        }


class Campaign(RuleBasedStateMachine):
    @initialize(
        n_paths=st.integers(1, 20),
        pieces=st.integers(1, 4),
        workers=st.integers(1, 4),
        max_requeues=st.integers(0, 2),
        every=st.integers(1, 3),
        faults=st.integers(0, 8),
    )
    def split(self, n_paths, pieces, workers, max_requeues, every, faults):
        self.all_ids = frozenset(range(n_paths))
        self.faults_left = faults
        self.knobs = dict(max_requeues=max_requeues, checkpoint_every=every)
        rec = CampaignRecord(campaign="c", program="p", spec=None, config=None,
                             parallel=None)
        self.state = CampaignState(rec, sched=PartitionScheduler(policy="fifo"),
                                   **self.knobs)
        self.oracle = Oracle(max_requeues)
        for ids in chunks(self.all_ids, pieces):
            self.state.push(Partition(
                *row(self.state.alloc_pid(), blob(ids), "split")))
            self.oracle.pool[frozenset(ids)] = 0
        self.epoch = 0
        self.begin(workers)

    # -- the shell: perform what the state returns ------------------------------

    def begin(self, workers: int) -> None:
        self.fleet = {wid: Process() for wid in range(workers)}
        self.oracle.begin(self.fleet)
        self.perform(self.state.begin(self.fleet))

    def perform(self, actions) -> None:
        for verb, *args in actions:
            if verb == SEND_TASK and args[1][0] == TASK_PARTITION:
                wid, (_, pid, snapshot) = args
                self.oracle.grant(wid, bag(snapshot))
                proc = self.fleet[wid]
                if proc.running:  # a crashed process loses what it is sent
                    proc.task = {"pid": pid, "todo": set(bag(snapshot)),
                                 "done": [], "started": False}
            elif verb == SEND_TASK and args[1][0] == TASK_STOP:
                proc = self.fleet[args[0]]
                if proc.running:
                    self.deliver((MSG_STATS, args[0], proc.stats(), {"from": args[0]}))
            elif verb == SEND_CMD:
                wid, (tag, pid) = args
                assert tag == CMD_STEAL and pid == self.state.leases[wid].part.pid
                if self.fleet[wid].running:
                    self.fleet[wid].steal_request = pid
            elif verb == FENCE:
                assert args[0] in self.state.fenced
            elif verb == CHECKPOINT:
                self.check_record(self.state.to_record(args[0]))

    def deliver(self, msg, accepted=lambda: None):
        """Hand the state one message; ``accepted`` tells the oracle what
        the message means, if the protocol says it counts."""
        discarded = self.oracle.discards(msg)
        before = self.fingerprint() if discarded else None
        actions = self.state.on_message(msg)
        assert (actions is None) == discarded, msg[:3]
        if discarded:
            assert self.fingerprint() == before, "a discarded message left a mark"
        else:
            accepted()
            self.perform(actions)
        return actions

    # -- which process can do what ------------------------------------------------

    def procs(self, started=True, todo=None, asked=False) -> list[int]:
        """Running processes on a task that is (not) started, has (no)
        paths left, has a steal request waiting."""
        return [
            wid for wid, proc in self.fleet.items()
            if proc.running and proc.task is not None
            and proc.task["started"] == started
            and (todo is None or bool(proc.task["todo"]) == todo)
            and (not asked or proc.steal_request is not None)
        ]

    @staticmethod
    def pick(candidates: list[int], index: int) -> int:
        return candidates[index % len(candidates)]

    # -- worker events (a fenced-but-running process still produces them) ---------

    @precondition(lambda self: self.procs(started=False))
    @rule(index=st.integers(0, 9))
    def start(self, index):
        wid = self.pick(self.procs(started=False), index)
        task = self.fleet[wid].task
        task["started"] = True
        self.deliver((MSG_START, wid, task["pid"]))

    @precondition(lambda self: self.procs(todo=True))
    @rule(index=st.integers(0, 9), count=st.integers(1, 3))
    def work(self, index, count):
        self.fleet[self.pick(self.procs(todo=True), index)].explore(count)

    @precondition(lambda self: self.procs(todo=False))
    @rule(index=st.integers(0, 9))
    def done(self, index):
        wid = self.pick(self.procs(todo=False), index)
        proc = self.fleet[wid]
        task, proc.task = proc.task, None
        ids = task["done"]

        def accepted():
            self.oracle.held.pop(wid)
            self.oracle.accept(wid, ids)

        actions = self.deliver((MSG_DONE, wid, task["pid"], list(ids), coverage(ids),
                                len(ids), proc.stats()), accepted)
        if actions is not None:
            due = self.state.completions % self.knobs["checkpoint_every"] == 0
            assert ((CHECKPOINT, "dispatch") in actions) == due

    @precondition(lambda self: self.procs(todo=True, asked=True))
    @rule(index=st.integers(0, 9), give=st.integers(1, 9),
          stolen_bags=st.integers(1, 2), kept_bags=st.integers(1, 2))
    def answer_steal(self, index, give, stolen_bags, kept_bags):
        wid = self.pick(self.procs(todo=True, asked=True), index)
        proc = self.fleet[wid]
        task, request, proc.steal_request = proc.task, proc.steal_request, None
        if request != task["pid"]:
            return  # aimed at a partition this process already finished
        todo = sorted(task["todo"])
        give %= len(todo)  # keep at least one path locally; maybe give none
        stolen, task["todo"] = todo[:give], set(todo[give:])
        stolen = chunks(stolen, stolen_bags)
        retained = chunks(task["todo"], kept_bags)
        done = list(task["done"])

        def accepted():
            for ids in stolen:
                self.oracle.pool[frozenset(ids)] = 0
            self.oracle.held[wid]["residual"] = (
                done, [frozenset(ids) for ids in retained])

        actions = self.deliver((
            MSG_STOLEN, wid,
            [row(request, blob(ids), f"steal:{wid}") for ids in stolen],
            [row(request, blob(ids), f"requeue:{wid}") for ids in retained],
            (done, coverage(done), len(done), proc.stats()),
        ), accepted)
        if actions is not None:
            assert ((CHECKPOINT, "steal") in actions) == bool(stolen)

    # -- faults ---------------------------------------------------------------------

    # Faults spend a per-example budget, so that fleets also live long
    # enough to steal, finish and be checkpointed mid-flight.

    def strike(self) -> None:
        self.faults_left -= 1

    @precondition(lambda self: self.faults_left
                  and any(p.running for p in self.fleet.values()))
    @rule(index=st.integers(0, 9))
    def crash(self, index):
        """The process dies; nobody has noticed yet."""
        self.strike()
        wid = self.pick([w for w, p in self.fleet.items() if p.running], index)
        self.fleet[wid].running = False

    def unnoticed(self) -> list[int]:
        return [wid for wid, proc in self.fleet.items()
                if not proc.running and wid not in self.state.fenced]

    @precondition(lambda self: self.unnoticed())
    @rule(index=st.integers(0, 9))
    def crash_noticed(self, index):
        """EOF or missed heartbeats: the transport reports the death."""
        self.fence(self.pick(self.unnoticed(), index))

    @precondition(lambda self: self.faults_left and self.state.alive())
    @rule(index=st.integers(0, 9))
    def lease_expires(self, index):
        """The transport reports a worker dead that merely went quiet: it
        becomes a zombie that keeps talking."""
        self.strike()
        self.fence(self.pick(self.state.alive(), index))

    @precondition(lambda self: self.faults_left or not self.state.alive())
    @rule(workers=st.integers(1, 4))
    def coordinator_restarts(self, workers):
        """The coordinator dies at an arbitrary moment (or gives up: its
        whole fleet is gone); a fresh one, with a fresh fleet, continues
        from the record of that moment."""
        if self.state.alive():
            self.strike()
        self.resume(self.take_record(), workers)

    def fence(self, wid: int) -> None:
        held = wid in self.oracle.held
        self.oracle.fenced.add(wid)
        self.oracle.lost += 1
        if held:
            self.oracle.release(wid, charge=1)
        actions = self.state.on_death(wid, "test")
        assert actions[0] == (FENCE, wid)
        assert ((CHECKPOINT, "requeue") in actions) == held
        self.perform(actions)
        assert self.state.on_death(wid, "again") == []

    def take_record(self):
        before = self.fingerprint()
        rec = self.state.to_record("dispatch")
        assert self.fingerprint() == before, "the checkpoint folded the live state"
        self.check_record(rec)
        return rec

    @rule()
    def checkpoint(self):
        """Take a record at an arbitrary moment (and carry on)."""
        self.take_record()

    def resume(self, rec, workers: int) -> None:
        self.epoch += 1
        rec.epoch = self.epoch  # the checkpointer's job
        rec = copy.deepcopy(rec)  # the resumed state shares nothing with the old
        self.oracle.resume(self.epoch)
        self.state = CampaignState.from_record(
            rec, sched=PartitionScheduler(policy="fifo"), **self.knobs)
        self.begin(workers)

    # -- invariants -------------------------------------------------------------------

    def fingerprint(self):
        """Everything observable about the live state."""
        state, rec = self.state, self.state.rec
        return repr((
            rec.tests, sorted(rec.covered), rec.streamed_paths,
            [(pid, origin, paths, sorted(cov))
             for pid, origin, paths, cov in rec.partition_results],
            rec.next_pid, rec.steals, rec.workers_lost, rec.requeue_log,
            sorted(rec.requeue_counts.items()), rec.pending,
            [(name, e.paths_completed, e.queries) for name, e in rec.worker_entries],
            [p.pid for p in state.sched.pending()],
            sorted((w, l.part.pid, l.started, l.residual is not None)
                   for w, l in state.leases.items()),
            sorted(state.fenced), sorted(state.steal_inflight), sorted(state.steal_dry),
            sorted(state.payloads), state.completions,
            sorted((w, c.paths_completed) for w, c in state._last_cum.items()),
        ))

    def dropped_ids(self) -> set:
        return {i for ids in self.oracle.dropped for i in ids}

    def check_conserved(self, view: Counter) -> None:
        assert all(n == 1 for n in view.values()), f"explored twice: {view}"
        missing = self.all_ids - set(view)
        assert missing == self.dropped_ids(), (sorted(missing), self.oracle.dropped)

    def check_record(self, rec) -> None:
        """A record stands alone: accepted ids plus pending bags conserve
        the id space, and its ledger sums to its accepted paths."""
        view = Counter(rec.tests)
        for _pid, snapshot, *_meta in rec.pending:
            view.update(bag(snapshot))
        self.check_conserved(view)
        assert rec.streamed_paths == len(rec.tests)
        assert sum(e.paths_completed for _, e in rec.worker_entries) == len(rec.tests)
        assert sum(e.queries for _, e in rec.worker_entries) == sum(
            cost(i) for i in rec.tests)

    @invariant()
    def conserved_and_equal_to_the_oracle(self):
        state, rec, oracle = self.state, self.state.rec, self.oracle
        view = Counter(rec.tests)
        queued = {}
        for part in state.sched.pending():
            view.update(bag(part.snapshot))
            queued[bag(part.snapshot)] = rec.requeue_counts.get(part.pid, 0)
        for lease in state.leases.values():
            if lease.residual is None:
                view.update(bag(lease.part.snapshot))
            else:
                retained, interim = lease.residual
                view.update(interim[0])
                for _pid, snapshot, *_meta in retained:
                    view.update(bag(snapshot))
        self.check_conserved(view)
        assert Counter(rec.tests) == oracle.accepted
        assert queued == oracle.pool  # same bags, same poison counts
        assert {w: bag(l.part.snapshot) for w, l in state.leases.items()} == {
            w: held["bag"] for w, held in oracle.held.items()}
        assert {w: rec.requeue_counts.get(l.part.pid, 0)
                for w, l in state.leases.items()} == {
            w: held["charge"] for w, held in oracle.held.items()}
        kinds = Counter(entry["kind"] for entry in rec.requeue_log)
        assert kinds["requeue"] == oracle.requeued
        assert rec.workers_lost == oracle.lost
        assert set(state.fenced) == oracle.fenced
        assert state.pending == len(oracle.pool) + len(oracle.held)

    @invariant()
    def ledger_is_the_sum_of_accepted_deltas(self):
        rec = self.state.rec
        assert rec.streamed_paths == len(rec.tests)
        assert rec.covered == coverage(rec.tests)
        assert [name for name, _ in rec.worker_entries] == list(self.oracle.by_worker)
        for name, stats in rec.worker_entries:
            ids = self.oracle.by_worker[name]
            assert stats.paths_completed == len(ids), name
            assert stats.queries == sum(cost(i) for i in ids), name

    @invariant()
    def no_steal_outlives_its_lease(self):
        state = self.state
        assert state.steal_inflight <= set(state.leases)
        assert state.steal_dry <= set(state.leases)
        if state.pending == 0:
            assert not state.leases and not state.steal_inflight

    # -- resume identity: whatever happened, finishing accepts every id once ---------

    def teardown(self):
        # A step that already failed may have left the state inconsistent:
        # driving it on would bury that failure under a harness crash.
        if not hasattr(self, "state") or sys.exc_info()[1] is not None:
            return
        for _ in range(200):
            for wid in self.unnoticed():
                self.fence(wid)  # a crash is noticed eventually
            if not self.state.pending:
                break
            if not self.state.alive():
                self.resume(self.take_record(), 1)
                continue
            assert self.state.leases, "work queued, workers idle, nothing leased"
            wid = min(self.state.leases)
            task = self.fleet[wid].task
            if not task["started"]:
                task["started"] = True
                self.deliver((MSG_START, wid, task["pid"]))
            self.fleet[wid].explore(len(task["todo"]))
            self.done(index=self.procs(todo=False).index(wid))
            self.conserved_and_equal_to_the_oracle()
        assert not self.state.pending
        self.perform(self.state.stop())
        assert self.state.unacked() == []
        assert set(self.state.payloads) == set(self.state.alive())
        accepted = Counter(self.state.rec.tests)
        assert all(n == 1 for n in accepted.values())
        assert set(accepted) == self.all_ids - self.dropped_ids()
        drops = [e for e in self.state.rec.requeue_log if e["kind"] == "dropped"]
        assert bool(drops) == bool(self.oracle.dropped)
        self.ledger_is_the_sum_of_accepted_deltas()
        self.check_record(self.state.to_record("drain"))


Campaign.TestCase.settings = settings(
    max_examples=250, stateful_step_count=60, deadline=None,
    suppress_health_check=list(HealthCheck),
)
test_any_fault_schedule_conserves_paths_and_ledger = Campaign.TestCase


# -- pinned schedule: the steal checkpoint at work --------------------------------


def test_pinned_victim_dies_and_coordinator_restarts_after_a_steal_reply():
    """The rare schedule spelled out: a victim answers a steal, then its
    lease is revoked — by a checkpoint (what-if) and by its death — and
    both recover from the steal checkpoint, not the original snapshot."""
    m = Campaign()

    def step(rule, **kw):
        rule(**kw)
        m.conserved_and_equal_to_the_oracle()
        m.ledger_is_the_sum_of_accepted_deltas()
        m.no_steal_outlives_its_lease()

    step(m.split, n_paths=6, pieces=1, workers=2, max_requeues=1, every=1, faults=9)
    step(m.start, index=0)  # worker 0 runs {0..5}, worker 1 idles: steal request
    assert m.state.steal_inflight == {0}
    step(m.work, index=0, count=2)  # explores 0 and 1
    step(m.answer_steal, index=0, give=2, stolen_bags=1, kept_bags=2)
    assert bag(m.state.leases[1].part.snapshot) == {2, 3}  # the thief has them
    rec = m.take_record()  # what a resume would find right now
    assert rec.tests == [0, 1] and rec.requeue_counts == {}
    assert sorted(sorted(bag(row[1])) for row in rec.pending) == [[2, 3], [4], [5]]
    assert m.state.rec.tests == [] and len(m.state.leases) == 2  # live: untouched
    step(m.lease_expires, index=0)  # the victim goes quiet mid-partition
    assert m.state.rec.tests == [0, 1]
    assert m.oracle.pool == {frozenset({4}): 1, frozenset({5}): 1}  # charged
    assert m.state.rec.worker_entries[0][1].paths_completed == 2
    step(m.work, index=0, count=3)  # ...but keeps exploring, as a zombie
    step(m.done, index=0)  # its late DONE is discarded
    assert m.state.rec.tests == [0, 1]
    step(m.coordinator_restarts, workers=2)
    assert m.state.rec.requeue_counts  # the charge crossed the restart
    m.teardown()
    assert sorted(m.state.rec.tests) == [0, 1, 2, 3, 4, 5]


# -- the law catches what it is there to catch -----------------------------------


def _residual_fold_skipped(monkeypatch):
    revoke = CampaignState.revoke

    def mutant(self, wid, charge):
        # Requeue the original snapshot, whatever was stolen from it.
        self.leases[wid] = dataclasses.replace(self.leases[wid], residual=None)
        return revoke(self, wid, charge)

    monkeypatch.setattr(CampaignState, "revoke", mutant)


def _fenced_done_accepted(monkeypatch):
    on_message = CampaignState.on_message

    def mutant(self, msg):
        if msg[0] == MSG_DONE and msg[1] in self.fenced:
            part = Partition(*row(msg[2], b"[]", "zombie"))
            self.accept(part, *msg[3:6])
            return None
        return on_message(self, msg)

    monkeypatch.setattr(CampaignState, "on_message", mutant)


def _steal_inflight_survives_death(monkeypatch):
    on_death = CampaignState.on_death

    def mutant(self, wid, reason):
        inflight = wid in self.steal_inflight
        actions = on_death(self, wid, reason)
        if inflight:
            self.steal_inflight.add(wid)
        return actions

    monkeypatch.setattr(CampaignState, "on_death", mutant)


def _checkpoint_folds_live_state(monkeypatch):
    to_record = CampaignState.to_record

    def mutant(self, phase):
        for wid in list(self.leases):
            self.revoke(wid, charge=False)
        return to_record(self, phase)

    monkeypatch.setattr(CampaignState, "to_record", mutant)


def _requeue_counts_lost_on_resume(monkeypatch):
    from_record = CampaignState.from_record.__func__

    def mutant(cls, rec, **knobs):
        rec.requeue_counts = {}
        return from_record(cls, rec, **knobs)

    monkeypatch.setattr(CampaignState, "from_record", classmethod(mutant))


# A fixed search seed: derandomize alone would digest the machine's
# source, so any edit to the harness would swap the examples each mutant
# is tried on.  Every mutant above fails under this seed.
@seed(0)
def _seeded_campaign():
    return Campaign()


@pytest.mark.parametrize("mutate", [
    _residual_fold_skipped,
    _fenced_done_accepted,
    _steal_inflight_survives_death,
    _checkpoint_folds_live_state,
    _requeue_counts_lost_on_resume,
])
def test_the_law_catches_a_broken_state_machine(mutate, monkeypatch):
    mutate(monkeypatch)
    with pytest.raises(AssertionError):
        # First failure wins: no shrinking, no second bug hunt.
        run_state_machine_as_test(_seeded_campaign, settings=settings(
            max_examples=500, stateful_step_count=40, deadline=None,
            derandomize=True, database=None, verbosity=Verbosity.quiet,
            phases=[Phase.generate], report_multiple_bugs=False,
            suppress_health_check=list(HealthCheck),
        ))
