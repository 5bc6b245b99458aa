"""Hash-consed logic nodes: one object per structure within a check.

Inside a :func:`repro.logic.hashcons.scope` a structure built twice is one
object; across scopes (and outside any) structurally equal nodes are ``==``
and hash-equal, so every node-keyed memo stays correct wherever its keys
were built.  Nodes pickle through their constructor, so a round trip — in
process or through a worker with another string-hash seed — gives an equal
node and never touches a live one.  Checks on several threads keep separate
tables and agree with sequential runs, as the service runs them.
"""

import os
import pickle
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.equivalence import check_language_equivalence
from repro.logic import confrel, folbv, hashcons
from repro.logic.fingerprint import folbv_fingerprint
from repro.p4a.bitvec import Bits
from repro.scenarios import get

SRC = Path(__file__).resolve().parents[2] / "src"

# ---------------------------------------------------------------------------
# Recipes: plain nested tuples that build a tree of nodes on demand, so one
# drawn structure can be built several times, in different scopes.
# ---------------------------------------------------------------------------


@st.composite
def _term(draw, width, depth, layer):
    kinds = ["const", "var"] + (["extract", "concat"] if depth > 0 else [])
    if width < 2:
        kinds = [kind for kind in kinds if kind != "concat"]
    kind = draw(st.sampled_from(kinds))
    if kind == "const":
        return ("const", Bits.from_int(draw(st.integers(0, (1 << width) - 1)), width))
    if kind == "var":
        if layer is confrel and draw(st.booleans()):
            return ("hdr", draw(st.sampled_from("<>")), draw(st.sampled_from("ab")), width)
        return ("var", f"v{draw(st.integers(0, 2))}", width)
    if kind == "extract":
        inner = width + draw(st.integers(0, 3))
        lo = draw(st.integers(0, inner - width))
        return ("extract", draw(_term(inner, depth - 1, layer)), lo, lo + width - 1)
    left = draw(st.integers(1, width - 1))
    return (
        "concat",
        draw(_term(left, depth - 1, layer)),
        draw(_term(width - left, depth - 1, layer)),
    )


@st.composite
def _formula(draw, depth, layer):
    kinds = ["true", "false", "eq"] + (["not", "and", "or", "implies"] if depth > 0 else [])
    kind = draw(st.sampled_from(kinds))
    if kind in ("true", "false"):
        return (kind,)
    if kind == "eq":
        width = draw(st.integers(1, 6))
        return ("eq", draw(_term(width, 2, layer)), draw(_term(width, 2, layer)))
    if kind == "not":
        return ("not", draw(_formula(depth - 1, layer)))
    if kind in ("and", "or"):
        operands = draw(st.lists(_formula(depth - 1, layer), min_size=1, max_size=3))
        return (kind, tuple(operands))
    return ("implies", draw(_formula(depth - 1, layer)), draw(_formula(depth - 1, layer)))


def _build(recipe, layer):
    """Build ``recipe`` with ``layer``'s node classes (no smart constructors)."""
    kind = recipe[0]
    if layer is folbv:
        classes = {
            "const": folbv.BVConst, "var": folbv.BVVar, "extract": folbv.BVExtract,
            "concat": folbv.BVConcatT, "true": folbv.BTrue, "false": folbv.BFalse,
            "eq": folbv.BEq, "not": folbv.BNot, "and": folbv.BAnd, "or": folbv.BOr,
            "implies": folbv.BImplies,
        }
    else:
        classes = {
            "const": confrel.CLit, "var": confrel.CVar, "hdr": confrel.CHdr,
            "extract": confrel.CSlice, "concat": confrel.CConcat, "true": confrel.FTrue,
            "false": confrel.FFalse, "eq": confrel.FEq, "not": confrel.FNot,
            "and": confrel.FAnd, "or": confrel.FOr, "implies": confrel.FImpl,
        }
    args = []
    for part in recipe[1:]:
        if isinstance(part, tuple) and part and isinstance(part[0], tuple):
            args.append(tuple(_build(operand, layer) for operand in part))
        elif isinstance(part, tuple):
            args.append(_build(part, layer))
        else:
            args.append(part)
    return classes[kind](*args)


LAYERS = st.sampled_from([folbv, confrel])


@st.composite
def _recipes(draw):
    layer = draw(LAYERS)
    return layer, draw(_formula(3, layer))


@settings(max_examples=150, deadline=None)
@given(_recipes())
def test_one_object_per_structure_within_a_check(drawn):
    layer, recipe = drawn
    with hashcons.scope():
        first = _build(recipe, layer)
        second = _build(recipe, layer)
        assert first is second
    with hashcons.scope():
        third = _build(recipe, layer)
    outside = _build(recipe, layer)
    for other in (third, outside):
        assert other == first and not other != first
        assert hash(other) == hash(first)
        assert str(other) == str(first)
        assert {first: "memo"}[other] == "memo"


@settings(max_examples=100, deadline=None)
@given(_recipes(), _recipes())
def test_different_structures_stay_different(drawn, other_drawn):
    (layer, recipe), (other_layer, other_recipe) = drawn, other_drawn
    with hashcons.scope():
        node = _build(recipe, layer)
        other = _build(other_recipe, other_layer)
        assert (node is other) == (node == other)
        assert (node == other) == (layer is other_layer and recipe == other_recipe)


def test_constants_survive_scope_resets():
    for _ in range(2):
        with hashcons.scope():
            assert folbv.BTrue() is folbv.B_TRUE and folbv.BFalse() is folbv.B_FALSE
            assert confrel.FTrue() is confrel.TRUE and confrel.FFalse() is confrel.FALSE
    assert pickle.loads(pickle.dumps(folbv.B_TRUE)) is folbv.B_TRUE
    assert pickle.loads(pickle.dumps(confrel.FALSE)) is confrel.FALSE


def test_nodes_are_immutable_and_validated():
    node = folbv.BVVar("x", 4)
    with pytest.raises(AttributeError):
        node.name = "y"
    with pytest.raises(folbv.FolBVError):
        folbv.BVExtract(node, 2, 4)
    with pytest.raises(confrel.ConfRelError):
        confrel.FEq(confrel.CVar("x", 4), confrel.CVar("y", 5))
    with pytest.raises(TypeError):
        folbv.BVVar("x")
    assert folbv.BVConcatT(node, folbv.BVVar("y", 3)).width == 7


def test_nested_scopes_share_one_table():
    with hashcons.scope():
        outer = confrel.CVar("x", 3)
        with hashcons.scope():
            assert confrel.CVar("x", 3) is outer
        assert hashcons.memo("m") is hashcons.memo("m")
    assert hashcons.memo("m") is not hashcons.memo("m")


# ---------------------------------------------------------------------------
# Pickling
# ---------------------------------------------------------------------------


def _sample_formula():
    x = folbv.BVVar("x", 8)
    header = folbv.BVVar("hdr_L_ip", 8)
    return folbv.b_and([
        folbv.BEq(folbv.BVExtract(x, 0, 3), folbv.BVConst(Bits("1010"))),
        folbv.b_not(folbv.BEq(x, header)),
        folbv.BImplies(folbv.BEq(x, x), folbv.BEq(header, folbv.BVConst(Bits("0" * 8)))),
    ])


def test_pickle_round_trip_in_process():
    with hashcons.scope():
        node = _sample_formula()
        before = (repr(node), hash(node), node.operands)
        copied = pickle.loads(pickle.dumps(node))
        # Unpickled through the constructor, so it joins the open table.
        assert copied is node
        assert (repr(node), hash(node), node.operands) == before
    copied = pickle.loads(pickle.dumps(node))
    assert copied == node and hash(copied) == hash(node)
    assert (repr(node), hash(node), node.operands) == before


_WORKER = textwrap.dedent(
    """
    import pickle, sys
    from repro.logic import hashcons
    from repro.logic.fingerprint import folbv_fingerprint
    from tests.logic.test_hash_consing import _sample_formula

    received = pickle.loads(sys.stdin.buffer.read())
    with hashcons.scope():
        built = _sample_formula()
        loaded = pickle.loads(pickle.dumps(received))
        assert loaded is built, "an unpickled node joins the open table"
    assert received == built and hash(received) == hash(built)
    sys.stdout.buffer.write(pickle.dumps((received, folbv_fingerprint(received))))
    """
)


@pytest.mark.parametrize("seed", ["1", "2"])
def test_pickle_round_trip_through_a_worker_with_another_hash_seed(seed):
    node = _sample_formula()
    live = (repr(node), hash(node))
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed if os.environ.get("PYTHONHASHSEED") != seed else "3"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(SRC.parent)])
    completed = subprocess.run(
        [sys.executable, "-c", _WORKER],
        input=pickle.dumps(node),
        capture_output=True,
        env=env,
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr.decode()
    returned, digest = pickle.loads(completed.stdout)
    assert returned == node and hash(returned) == hash(node)
    assert digest == folbv_fingerprint(node)
    assert (repr(node), hash(node)) == live


# ---------------------------------------------------------------------------
# Checks on threads
# ---------------------------------------------------------------------------


def _check(name):
    result = check_language_equivalence(*get(name).automata())
    return result.verdict, result.raw.relation, result.statistics.relation_size


def test_checks_on_threads_match_sequential_runs():
    # More threads than cores and a short switch interval, so the checks
    # interleave finely; each keeps its own node table all the same.
    names = ["mini_qinq", "mini_qinq_broken", "mini_vxlan_gre", "mini_arp_icmp_broken"]
    sequential = [_check(name) for name in names]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(names)) as pool:
            threaded = list(pool.map(_check, names, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == sequential
    assert hashcons._SCOPE.get() is None
