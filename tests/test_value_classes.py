"""The contract of the package's value classes: constructors, reprs,
immutability, and the fields that equality and hashing read."""

import copy
import pickle

import pytest

from girardlab import (
    ColoredDigraph,
    InvolutionAudit,
    LinearSubdigraph,
    NewtonReport,
    Poly,
    Walk,
    WalkGammaPair,
    make_subdigraph,
    verify_walk_cycle_identity,
    xvar,
)
from girardlab.cli import RunReport

WALK = Walk(1, ((1, 1),))
GAMMA = make_subdigraph([[(2, 2, 2)]])

# class -> (a builder of a fresh instance, its repr, the fields it has)
CASES = {
    ColoredDigraph: (
        lambda: ColoredDigraph(2, 2, {(1, 1): [2, 3]}),
        "ColoredDigraph(n=2, colors=2, edges=mappingproxy({(1, 1): (2, 3)}))",
        ["n", "colors", "edges"],
    ),
    Walk: (
        lambda: Walk(start=1, steps=((2, 1), (1, 2))),
        "Walk(start=1, steps=((2, 1), (1, 2)))",
        ["start", "steps", "vertex_mask", "color_mask"],
    ),
    LinearSubdigraph: (
        lambda: make_subdigraph([[(1, 2, 1), (2, 1, 2)]]),
        "LinearSubdigraph(cycles=(((1, 2, 1), (2, 1, 2)),))",
        ["cycles", "vertex_mask", "color_mask"],
    ),
    WalkGammaPair: (
        lambda: WalkGammaPair(walk=WALK, gamma=GAMMA),
        "WalkGammaPair(walk=Walk(start=1, steps=((1, 1),)), "
        "gamma=LinearSubdigraph(cycles=(((2, 2, 2),),)))",
        ["walk", "gamma"],
    ),
    InvolutionAudit: (
        lambda: InvolutionAudit(2, 0, 2, Poly.zero(), Poly.const(-5), problems=()),
        "InvolutionAudit(pair_count=2, bad_count=0, good_count=2, total=Poly('0'), "
        "correction=Poly('-5'), problems=())",
        ["pair_count", "bad_count", "good_count", "total", "correction", "problems"],
    ),
    NewtonReport: (
        lambda: NewtonReport("r<=n", {}, Poly.zero(), Poly.one(),
                             residuals={1 << 1: Poly.one()}),
        "NewtonReport(case='r<=n', breakdown={}, aggregated_correction=Poly('0'), "
        "residual=Poly('1'), residuals={2: Poly('1')})",
        ["case", "breakdown", "aggregated_correction", "residual", "residuals"],
    ),
    RunReport: (
        lambda: RunReport(command="powersum", params={"m": 1}, trials=1, failures=[{}],
                          seed=3, notes=["n"], elapsed_ms=5),
        "RunReport(command='powersum', params={'m': 1}, trials=1, failures=[{}], "
        "seed=3, notes=['n'], elapsed_ms=5)",
        ["command", "params", "trials", "failures", "seed", "notes", "elapsed_ms"],
    ),
}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_value_class_contract(cls):
    build, text, fields = CASES[cls]
    value, twin = build(), build()
    assert type(value) is cls and repr(value) == text
    # copy and pickle fill in an instance past the assignment guard
    assert repr(copy.copy(value)) == text
    if cls is not ColoredDigraph:  # its edge map, a mappingproxy, does not pickle
        assert repr(copy.deepcopy(value)) == repr(pickle.loads(pickle.dumps(value))) == text

    if cls is RunReport:  # the one mutable class: filled in by a run
        value.trials += 1
        assert value != twin and RunReport("c", {}) == RunReport("c", {})
        assert RunReport("c", {}).failures is not RunReport("c", {}).failures
        assert vars(value) == {name: getattr(value, name) for name in fields}
        return
    for name in [*fields, "unknown"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text

    assert value == twin and not value != twin
    if cls in (ColoredDigraph, NewtonReport):  # unhashable, as its edge map or breakdown is
        with pytest.raises(TypeError):
            hash(value)
    if cls is ColoredDigraph:
        assert ColoredDigraph(2, 2) == ColoredDigraph(n=2, colors=2, edges={}) != value
        return
    if cls is NewtonReport:
        # a real report is a value too: equal to its rerun, and its repr
        # shows the factors, which a copy keeps
        g = ColoredDigraph(1, 2, {(1, 1): [2, Poly.variable(xvar(1, 1))]})
        report = verify_walk_cycle_identity(g, 1)
        assert report == verify_walk_cycle_identity(g, 1)
        real = repr(report)
        assert " at 0x" not in real and "(Poly('x[1]^(1)'), 1)" in real
        assert repr(copy.deepcopy(report)) == repr(pickle.loads(pickle.dumps(report))) == real
        return
    # the hash of one tuple of every field, which fixes set orders
    assert hash(value) == hash(twin) == hash(tuple(getattr(value, f) for f in fields))

