"""Golden pins of what the engine's listeners see, scheme by scheme.

Each case drives one of the perf ladder's three workload scenarios
(``perf/workloads/*.toml``) through a seeded round-robin interleaving
of four open transactions, with extra seeded child aborts on top of
the scenario's own failure injection.  Interleaving produces lock
denials, and a round in which every open transaction is blocked
aborts the youngest, so commits, child aborts, top-level aborts and
denials all occur.

Two families of sha256 pins:

* the model-alphabet trace of a ``trace=True`` locking engine: the
  recorded schedule, the commit values and the rebuilt system type;
* the :class:`~repro.obs.Observer`'s view of the same runs on the
  thread-safe facade and the simulator driver:
  the metrics snapshot and the span and instant counts.  Wall-clock
  histograms contribute their sample counts only; the simulator runs
  on simulated time, so its whole snapshot is pinned.  MVTO has these
  pins too.

A change to how the engine announces its transitions must leave every
digest here unchanged.
"""

import hashlib
import json
import os
import random

import pytest

from repro.engine import Engine, ThreadSafeEngine
from repro.errors import LockDenied, ReproError
from repro.obs import Observer
from repro.scenario import (
    AccessOp,
    compile_scenario,
    get_driver,
    load_scenario,
)

WORKLOADS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir,
    os.pardir,
    "perf",
    "workloads",
)
SCHEMES = ("moss-rw", "exclusive", "flat-2pl")
#: MVTO keeps no model-alphabet trace, so it has observer pins only.
OBSERVER_SCHEMES = SCHEMES + ("mvto",)
WORKLOAD_NAMES = ("bank", "deep", "feed")
SEED = 11
TRANSACTIONS = 36
#: Open transactions interleaved at once.
WIDTH = 4
#: Extra chance that a finished child block aborts instead of
#: committing, on top of the scenario's own ``fail_prob``.
EXTRA_CHILD_ABORT = 0.15


def _compiled(workload):
    spec = load_scenario(os.path.join(WORKLOADS, workload + ".toml"))
    return compile_scenario(spec, SEED, transactions=TRANSACTIONS)


def _walk(txn, block, rng, perform):
    """Run *block* on handle *txn*, yielding after every engine call.

    Yields ``"blocked"`` after a denied access (it is retried when the
    scheduler resumes this walk) and ``"ran"`` otherwise.
    """
    for step in block.steps:
        if isinstance(step, AccessOp):
            while True:
                try:
                    perform(txn, step.object_name, step.operation)
                    break
                except LockDenied:
                    yield "blocked"
            yield "ran"
            continue
        tries_left = step.retries
        while True:
            child = txn.begin_child()
            yield "ran"
            yield from _walk(child, step, rng, perform)
            failed = bool(step.fail_prob) and rng.random() < step.fail_prob
            if failed or rng.random() < EXTRA_CHILD_ABORT:
                child.abort()
                yield "ran"
                if tries_left > 0:
                    tries_left -= 1
                    continue
            else:
                child.commit()
                yield "ran"
            break


def _drive(begin_top, programs, perform, seed=SEED):
    """Interleave *programs* WIDTH at a time; returns (commits, aborts)."""
    rng = random.Random(seed)
    pending = list(programs)
    live = []  # [top, walk, blocked]
    commits = aborts = 0
    while pending or live:
        while pending and len(live) < WIDTH:
            top = begin_top()
            program = pending.pop(0)
            live.append([top, _walk(top, program.body, rng, perform), False])
        client = live[rng.randrange(len(live))]
        top, walk, _ = client
        released = True
        try:
            try:
                client[2] = next(walk) == "blocked"
                released = False
            except StopIteration:
                live.remove(client)
                top.commit()
                commits += 1
        except ReproError:
            # Wounded (facade) or escalated (flat-2pl) under the walk.
            if client in live:
                live.remove(client)
            if top.is_active:
                top.abort()
            aborts += 1
        if released:
            for other in live:
                other[2] = False
        elif all(blocked for _, _, blocked in live):
            # Everyone waits on someone: abort the youngest tree.
            victim = max(live, key=lambda entry: entry[0].name)
            live.remove(victim)
            victim[0].abort()
            aborts += 1
            for other in live:
                other[2] = False
    return commits, aborts


def _engine_perform(txn, object_name, operation):
    return txn.perform(object_name, operation)


def _facade_perform(txn, object_name, operation):
    # One driving thread: a wait could never end, so a denial that
    # cannot wound anyone surfaces at once as LockDenied.
    return txn.perform(object_name, operation, timeout=0.0)


def _sha(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _trace_digest(engine) -> str:
    recorder = engine.recorder
    system_type = recorder.system_type(engine.specs)
    tree = [
        [
            repr(name),
            repr(system_type.children(name)),
            repr(system_type.access_spec(name))
            if system_type.is_access(name)
            else None,
        ]
        for name in system_type.transactions()
    ]
    return _sha(
        {
            "schedule": [repr(event) for event in recorder.schedule()],
            "commit_values": sorted(
                (repr(name), repr(value))
                for name, value in recorder.commit_values.items()
            ),
            "system_type": tree,
        }
    )


def _observer_digest(observer, timed: bool) -> str:
    snapshot = observer.metrics.snapshot()
    if timed:
        # Wall-clock histograms: only how many samples each received.
        snapshot["histograms"] = {
            key: histogram["count"]
            for key, histogram in snapshot["histograms"].items()
        }
    return _sha(
        {
            "metrics": snapshot,
            "spans": len(observer.tracer.spans),
            "instants": len(observer.tracer.instants),
        }
    )


TRACE_PINS = {
    ("bank", "moss-rw"): (
        "7bcb6fca303edd11707650864431224eddc8d9c8ed8fbbcf27ad5a67ad63c0af"
    ),
    ("bank", "exclusive"): (
        "2fb4b84d2cb184d2a55d7831bf378e8a41e92f5abf246ffb99cedc5a00df26eb"
    ),
    ("bank", "flat-2pl"): (
        "acb3a1e89651886299171a9c114e35e9a90dd49a637eac1c37368e4a5a60c03c"
    ),
    ("deep", "moss-rw"): (
        "a95e64ba8f5a4bdd0f086d0feed5e21f3e393915e9ab6fc943df0d16b33529cc"
    ),
    ("deep", "exclusive"): (
        "05f59ef630270652fd5392bf42ce9086f3e01beeb057b418f447e4ca3fb45f67"
    ),
    ("deep", "flat-2pl"): (
        "74416baf044538188656af8f7e6074cfd275b5e313dae48340299b77e99ee172"
    ),
    ("feed", "moss-rw"): (
        "30c2aaafca564c607de7df7d7655f6d25a24912e234273b3842fe772b37662f1"
    ),
    ("feed", "exclusive"): (
        "51aedfca6899b71c9d30bda77206367798fa4955eecde0c8f84ce5e01b0f930e"
    ),
    ("feed", "flat-2pl"): (
        "076e9d8a383256e8c5bb12627f4e267f0c64ecf5f68aa1046fe9d94a0b03d90e"
    ),
}

FACADE_OBSERVER_PINS = {
    ("bank", "moss-rw"): (
        "8610c010d6550570bb5aa477e7a2c83a85702ea539fcc8a33a44b6b152009483"
    ),
    ("bank", "exclusive"): (
        "7b204422100351868a0b3cb95b630bbc351919457bb81a18d86dde61fbf72afc"
    ),
    ("bank", "flat-2pl"): (
        "b34bf2983bf16a70fa5b76411f09b2b4ced7756f54ba95aa1cd2891e71cef6d6"
    ),
    ("deep", "moss-rw"): (
        "6f41dcfec0152692c779f278b6f1185532c445ed9312458085203f4099742bb6"
    ),
    ("deep", "exclusive"): (
        "83fb08e4d7a1eb0ca5b5e8e5ae250ddd11d8f28406a0ebb37d5a9ee7e5a0f433"
    ),
    ("deep", "flat-2pl"): (
        "d8defea533a2e0e99a8a54822b077c3b3062f984a456ae071c915755c771cf8b"
    ),
    ("feed", "moss-rw"): (
        "c3dc7c6f7651edccb87c8e2e4bbffe4945829716dd67a51d743641bcc52bfeee"
    ),
    ("feed", "exclusive"): (
        "af56962440d0621f87ce7b300e8d1d8eb5f168c67f6d9b2d10211770a24db1c7"
    ),
    ("feed", "flat-2pl"): (
        "c3dc7c6f7651edccb87c8e2e4bbffe4945829716dd67a51d743641bcc52bfeee"
    ),
    ("bank", "mvto"): (
        "a762217320e82d3286b0e3dcca6683998a4b2be56f342b8f199e91978b5bdd9f"
    ),
    ("deep", "mvto"): (
        "3be8e6421418abedd90f41ba8b22de857dcaa7300b7c4cf205c03071a34ed2fb"
    ),
    ("feed", "mvto"): (
        "9daf5767a6bc645001bd6305d95c07e3cbd253293478a68240bdc64ec9aecafa"
    ),
}

SIM_OBSERVER_PINS = {
    ("bank", "moss-rw"): (
        "e48b5bb356f471144433e964bd5df8776f7eda1303c9eacdeba96bf1142f5820"
    ),
    ("bank", "exclusive"): (
        "3db309e4f1c818f8321d800e5cf2fcdfbc2b1d2b61a4072743e44babc020359d"
    ),
    ("bank", "flat-2pl"): (
        "f8265e97effed262d46f4d7478964311b2494b91ccf006301f05d21388e024f3"
    ),
    ("deep", "moss-rw"): (
        "2ca8b216131b81fe5caa5ca42d54045a7a6a445208fb0f8dbb89d21261d8535e"
    ),
    ("deep", "exclusive"): (
        "d6552797862aee1bea668d21a007c638577b5e2abb0cf540697325fe0aef0734"
    ),
    ("deep", "flat-2pl"): (
        "228e833a5b59b2df5cbe304dc6172a1ce20750df95792a20bdb2f7a6c7939019"
    ),
    ("feed", "moss-rw"): (
        "6acc25c863f11da5f5bd625e8e66929668f11cf91dc7bd4facd78401a442f515"
    ),
    ("feed", "exclusive"): (
        "d7670866a95a2dc77a0e4dfb342580e869e8e36ee7ce3200ccc326ff86501c50"
    ),
    ("feed", "flat-2pl"): (
        "6acc25c863f11da5f5bd625e8e66929668f11cf91dc7bd4facd78401a442f515"
    ),
    ("bank", "mvto"): (
        "8f8d9479d72bd5c88c5deae72db4fd8389951b0a65e8a9880a023dd18831f17a"
    ),
    ("deep", "mvto"): (
        "bda1bd90630bd9f239af2032316f4ba19eb565455b1510bbca37126c52aa31b0"
    ),
    ("feed", "mvto"): (
        "77d277e9d7bd60399e2ea67268b817cb33e6e89987d702bd32328ede60adc40d"
    ),
}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_trace_pins(workload, scheme):
    compiled = _compiled(workload)
    engine = Engine(compiled.store(), policy=scheme, trace=True)
    commits, aborts = _drive(
        engine.begin_top, compiled.programs, _engine_perform
    )
    assert commits + aborts == TRANSACTIONS
    assert engine.stats["denials"] > 0
    assert _trace_digest(engine) == TRACE_PINS[workload, scheme]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("scheme", OBSERVER_SCHEMES)
# The facade has one locking regime; the two ids are the two
# ``stripes`` spellings it still accepts (the default, and ``0`` as the
# perf ladder passes it), which must see the same digest.
@pytest.mark.parametrize("regime", ("striped", "global"))
def test_facade_observer_pins(regime, workload, scheme):
    compiled = _compiled(workload)
    observer = Observer()
    facade = ThreadSafeEngine(
        compiled.store(),
        policy=scheme,
        observer=observer,
        stripes=None if regime == "striped" else 0,
    )
    commits, aborts = _drive(
        facade.begin_top, compiled.programs, _facade_perform
    )
    assert commits + aborts == TRANSACTIONS
    digest = _observer_digest(observer, timed=True)
    assert digest == FACADE_OBSERVER_PINS[workload, scheme]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("scheme", OBSERVER_SCHEMES)
def test_sim_observer_pins(workload, scheme):
    compiled = _compiled(workload)
    observer = Observer()
    result = get_driver("sim").run(
        compiled, scheme=scheme, observer=observer
    )
    assert result.committed == TRANSACTIONS
    digest = _observer_digest(observer, timed=False)
    assert digest == SIM_OBSERVER_PINS[workload, scheme]
