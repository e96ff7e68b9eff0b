"""The tracer sees internal calls and accounts for all of a root's time."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

vdiam = workloads.import_vdiam()


def _traced_sequence():
    pres, _ = vdiam.load_variety("hyperbola")
    sampler = vdiam.torus_sampler(pres, 48)
    tracer = Tracer()
    with tracer.installed(), tracer.span("bench.test") as root:
        vdiam.diameter_sequence(pres, "cm", 8, sampler, starts=4)
    return tracer, root


def test_counts_calls_at_every_binding_site():
    tracer, root = _traced_sequence()
    m = tracer.pass_metrics(root)
    # cm_generators and cm_basis call validate_noether and decompose_A through
    # names bound in bases and variety; patching only variety's would miss them
    assert m["variety.validate_noether.calls"] == 19
    assert m["vdm.fekete.calls"] == 8
    assert m["vdm.fekete.starts"] == 32
    assert m["vdm.fekete.solves"] > 0


def test_self_times_sum_to_the_root():
    tracer, root = _traced_sequence()
    _, t0, t1, _ = tracer.spans[root]
    selfs = tracer.self_times(root)
    assert set(selfs) <= {"bench", "cli", "variety", "polyring", "scalars", "bases", "families", "vdm"}
    assert abs(sum(selfs.values()) - (t1 - t0)) <= 1e-9 * (t1 - t0)


def test_originals_are_restored():
    import numpy as np

    solve, count = np.linalg.solve, vdiam.bases.count
    _traced_sequence()
    assert np.linalg.solve is solve and vdiam.bases.count is count
    assert vdiam.scalars.Exact.__radd__ is vdiam.scalars.Exact.__add__
    assert not hasattr(vdiam.variety.validate_noether, "__wrapped__")
