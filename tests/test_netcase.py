from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_max_ulp

from voltctrl import (
    Branch,
    Bus,
    BusKind,
    CaseDataError,
    CaseFormatError,
    IslandingError,
    VoltCtrlError,
    build_admittance,
    load_case,
    netcase,
    parse_case,
    scale_loads,
    serialize_case,
    trip_branch,
)
from voltctrl.powerflow import nominal_injections, solve_power_flow
from voltctrl.sensitivity import partition_buses
from conftest import TOY2_TEXT


def test_case14_shape(case14):
    assert case14.n_buses == 14
    assert len(case14.branches) == 20
    slack = [b.id for b in case14.buses if b.kind is BusKind.SLACK]
    pv = [b.id for b in case14.buses if b.kind is BusKind.PV]
    assert slack == [1]
    assert pv == [2, 3, 6, 8]


def test_case30_shape(case30):
    assert case30.n_buses == 30
    assert len(case30.branches) == 41
    slack = [b.id for b in case30.buses if b.kind is BusKind.SLACK]
    pv = [b.id for b in case30.buses if b.kind is BusKind.PV]
    assert slack == [1]
    assert pv == [2, 5, 8, 11, 13]


def test_per_unit_conversion(case14):
    bus2 = case14.bus(2)
    assert bus2.p_load == pytest.approx(0.217)
    assert bus2.q_load == pytest.approx(0.127)
    # bus 9 carries a 19 MVar shunt capacitor
    assert case14.bus(9).b_shunt == pytest.approx(0.19)
    gen1 = [g for g in case14.generators if g.bus == 1][0]
    assert gen1.p_gen == pytest.approx(2.324)
    assert case14.bus(gen1.bus).v_setpoint == pytest.approx(1.06)


def test_setpoints_attached_to_buses(case14):
    want = {1: 1.06, 2: 1.045, 3: 1.01, 6: 1.07, 8: 1.09}
    for bus_id, v in want.items():
        assert case14.bus(bus_id).v_setpoint == pytest.approx(v)


def test_controllers_default_to_pq_buses(case14):
    assert [b.id for b in case14.buses if b.has_controller] == [4, 5, 7, 9, 10, 11, 12, 13, 14]


def test_minimal_two_bus(toy2):
    assert toy2.n_buses == 2
    assert len(toy2.branches) == 1
    assert toy2.bus(2).q_load == pytest.approx(0.736)


# toy2's matrices, as written in TOY2_TEXT
_TOY2_ROWS = {
    "bus": ["1 3 0 0 0 0 1 1 0 0 1 1.1 0.9", "2 1 0 73.6 0 0 1 1 0 0 1 1.1 0.9"],
    "gen": ["1 0 0 0 0 1.0 100 1 0 0"],
    "branch": ["1 2 0 0.1 0 0 0 0 0 0 1 -360 360"],
}


@pytest.mark.parametrize("layout", ["row_per_line", "first_row_on_bracket", "one_line"])
def test_matrix_layouts_parse_alike(toy2, layout):
    lines = ["function mpc = toy2", "mpc.baseMVA = 100;"]
    for name, rows in _TOY2_ROWS.items():
        if layout == "row_per_line":
            lines += [f"mpc.{name} = [", *(f"{r};" for r in rows), "];"]
        elif layout == "first_row_on_bracket":
            lines += [f"mpc.{name} = [{rows[0]};", *(f"{r};" for r in rows[1:]), "];"]
        else:
            lines.append(f"mpc.{name} = [{'; '.join(rows)}];")
    text = "\n".join(lines) + "\n"
    assert parse_case(text, name="toy2") == toy2
    with pytest.raises(CaseFormatError, match="matrix 'branch' is not closed"):
        parse_case(text[: text.rindex("]")])


def test_dangling_branch_endpoint():
    bad = TOY2_TEXT.replace("\t1\t2\t0\t0.1", "\t1\t99\t0\t0.1")
    with pytest.raises(CaseDataError, match="99"):
        parse_case(bad)


def test_syntax_error_reports_line_number():
    bad = TOY2_TEXT.replace("1\t3\t0\t0", "1\tthree\t0\t0")
    with pytest.raises(CaseFormatError, match=r"line 4"):
        parse_case(bad)


def test_missing_base_mva():
    bad = "\n".join(l for l in TOY2_TEXT.splitlines() if "baseMVA" not in l)
    with pytest.raises(CaseFormatError, match="baseMVA"):
        parse_case(bad)


def test_duplicate_bus_id():
    bad = TOY2_TEXT.replace("\t2\t1\t0\t73.6", "\t1\t1\t0\t73.6")
    with pytest.raises(CaseDataError, match="duplicate"):
        parse_case(bad)


def test_no_slack_rejected():
    bad = TOY2_TEXT.replace("\t1\t3\t0\t0", "\t1\t1\t0\t0")
    with pytest.raises(CaseDataError):
        parse_case(bad)


def test_zero_reactance_rejected():
    bad = TOY2_TEXT.replace("\t1\t2\t0\t0.1", "\t1\t2\t0\t0")
    with pytest.raises(CaseDataError, match="reactance"):
        parse_case(bad)


def test_phase_shifter_rejected():
    # angle column is the tenth branch field
    bad = TOY2_TEXT.replace(
        "\t1\t2\t0\t0.1\t0\t0\t0\t0\t0\t0\t1", "\t1\t2\t0\t0.1\t0\t0\t0\t0\t0\t30\t1"
    )
    with pytest.raises(CaseDataError, match="phase"):
        parse_case(bad)


def _case14_with(matrix: str, row: int, col: int, token: str) -> str:
    """The bundled case14 text with one number of one matrix row replaced."""
    from importlib import resources

    lines = resources.files("voltctrl").joinpath("data", "case14.m").read_text().splitlines()
    at = lines.index(f"mpc.{matrix} = [") + 1 + row
    cells = lines[at].rstrip(";").split()
    cells[col] = token
    lines[at] = "\t" + "\t".join(cells) + ";"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "matrix, row, col, token, message",
    [
        ("bus", 3, 0, "NaN", "bus id must be an integer, got nan"),
        ("bus", 3, 0, "Inf", "bus id must be an integer, got inf"),
        ("bus", 3, 2, "NaN", "bus 4: p_load is nan"),
        ("branch", 0, 3, "Inf", "branch 1-2: x is inf"),
        ("gen", 1, 5, "NaN", "bus 2: v_setpoint is nan"),
        # the angle is read before the phase-shifter check, not after it
        ("branch", 0, 9, "NaN", "branch 1-2: angle is nan, not a finite number"),
        ("branch", 0, 9, "-Inf", "branch 1-2: angle is -inf, not a finite number"),
    ],
    ids=[
        "bus_id_nan", "bus_id_inf", "pd_nan", "branch_x_inf", "gen_vg_nan",
        "branch_angle_nan", "branch_angle_inf",
    ],
)
def test_non_finite_case_numbers_rejected(matrix, row, col, token, message):
    with pytest.raises(CaseDataError, match=message):
        parse_case(_case14_with(matrix, row, col, token))


_GEN2 = "\t2\t40\t42.4\t50\t-40\t1.045\t100\t1\t140\t0;"


@pytest.mark.parametrize(
    "old, new, error, message",
    [
        ("0\t1\t1.06\t0.94;", "0\t1\t1.06;", CaseFormatError, "bus row has 12 columns"),
        (_GEN2, "\t2\t40\t42.4\t50\t-40;", CaseFormatError, "gen row has 5 columns"),
        ("0.0528\t9900\t0\t0\t0\t0\t1\t-360\t360;", "0.0528\t9900\t0\t0\t0\t0;",
         CaseFormatError, "branch row has 10 columns"),
        ("mpc.bus = [", "mpc.buses = [", CaseFormatError, "missing bus matrix"),
        ("\t4\t1\t47.8", "\t4\t4\t47.8", CaseDataError, "bus 4: unsupported bus type 4"),
        ("mpc.baseMVA = 100;", "mpc.baseMVA = 0;", CaseDataError, "base MVA must be positive"),
        # present but not finite: not missing
        ("mpc.baseMVA = 100;", "mpc.baseMVA = Inf;", CaseDataError,
         "base MVA must be positive and finite, got inf"),
        ("mpc.baseMVA = 100;", "mpc.baseMVA = 1e400;", CaseDataError,
         "base MVA must be positive and finite, got inf"),
        # text, not a number: named with its line, unlike a version string
        ("mpc.baseMVA = 100;", "mpc.baseMVA = 'x';", CaseFormatError,
         "line 7: baseMVA is not a number: 'x'"),
        ("mpc.version = '2';", "mpc.version '2';", CaseFormatError,
         "line 5: expected an assignment"),
        (_GEN2, _GEN2 + "\n\t2\t0\t0\t0\t0\t1.0\t100\t1\t0\t0;", CaseDataError,
         "conflicting voltage setpoints at bus 2"),
        (_GEN2, _GEN2 + "\n\t99\t0\t0\t0\t0\t1.0\t100\t1\t0\t0;", CaseDataError,
         "generator references unknown bus 99"),
        (_GEN2, _GEN2 + "\n\t4\t0\t0\t0\t0\t1.0\t100\t1\t0\t0;", CaseDataError,
         "generator at PQ bus 4"),
        (_GEN2, _GEN2.replace("1.045", "0"), CaseDataError,
         "bus 2 needs a positive voltage setpoint"),
        ("0.20912\t0\t9900\t0\t0\t0.978", "0.20912\t0\t9900\t0\t0\t-1", CaseDataError,
         "branch 4-7 has nonpositive tap ratio"),
        ("0.20912\t0\t9900\t0\t0\t0.978", "0.20912\t0\t9900\t0\t0\t1e-300", CaseDataError,
         r"branch 4-7: 1/t\^2 is not finite"),
        ("\t4\t7\t0\t0.20912", "\t4\t7\t0\t1e-320", CaseDataError,
         r"branch 4-7: 1/\(r \+ jx\) is not finite"),
        (_GEN2, _GEN2.replace("100\t1\t140", "100\t0\t140"), CaseDataError,
         "PV bus 2 has no generator setpoint"),
    ],
    ids=[
        "short_bus_row", "short_gen_row", "short_branch_row", "no_bus_matrix", "bus_type_4",
        "base_mva_zero", "base_mva_inf", "base_mva_overflows", "base_mva_text", "not_an_assignment", "conflicting_vg", "gen_at_unknown_bus",
        "gen_at_pq_bus", "vg_zero", "tap_negative", "tap_underflows", "reactance_underflows",
        "pv_gen_out_of_service",
    ],
)
def test_malformed_case_text_is_rejected(old, new, error, message):
    # one edit of the bundled case14 text each, raising its typed error
    from importlib import resources

    text = resources.files("voltctrl").joinpath("data", "case14.m").read_text()
    assert old in text
    with pytest.raises(error, match=message):
        parse_case(text.replace(old, new, 1))


# what a corrupted token becomes: numbers that break the model's invariants,
# the format's own punctuation, and words the parser must not take for either
_CORRUPT_TOKENS = (
    "", "0", "-1", "1.5", "2", "3", "4", "1e999", "-1e999", "1e-320", "1e308", "1e400",
    "nan", "inf", "-inf", "0x10", "1_0", "[", "]", ";", "];", "=", "%", "'", "mpc.bus",
    "mpc.gen", "mpc.branch", "mpc.baseMVA", "function", "[1", "1]", "1;2", "\u00e9", "\x00",
)


@seed(17023859983378690862165851259007744193008837527806501659723342229335531431210933038770701103062117047388260228400452)
@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_fuzzed_case_text_raises_only_typed_errors(data):
    # the bundled case14 text with tokens deleted, duplicated or corrupted
    # either parses or raises one of the package's own errors, never a
    # Python or numpy exception
    from importlib import resources

    text = resources.files("voltctrl").joinpath("data", "case14.m").read_text()
    pieces = re.split(r"(\s+)", text)
    tokens = range(0, len(pieces), 2)
    for _ in range(data.draw(st.integers(1, 6), label="edits")):
        at = data.draw(st.sampled_from(tokens), label="token")
        edit = data.draw(st.sampled_from(["delete", "duplicate", "corrupt", "splice"]))
        if edit == "delete":
            pieces[at] = ""
        elif edit == "duplicate":
            pieces[at] = pieces[at] + " " + pieces[at]
        elif edit == "corrupt":
            pieces[at] = data.draw(st.sampled_from(_CORRUPT_TOKENS), label="new token")
        else:
            cut = data.draw(st.integers(0, len(pieces[at])), label="cut")
            pieces[at] = pieces[at][:cut] + data.draw(st.text(max_size=3)) + pieces[at][cut:]
    try:
        parse_case("".join(pieces))
    except VoltCtrlError:
        pass


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda case: replace(case, base_mva=np.inf), "base MVA must be positive and finite"),
        (
            lambda case: replace(case, buses=tuple(
                replace(b, has_controller=True) if b.id == 2 else b for b in case.buses
            )),
            "controller at non-PQ bus 2",
        ),
    ],
    ids=["base_mva_inf", "controller_at_pv_bus"],
)
def test_edited_case_is_validated(case14, edit, message):
    # edits made with dataclasses.replace pass the same checks as parsed text
    with pytest.raises(CaseDataError, match=message):
        edit(case14)


def test_unread_columns_may_hold_inf(case14):
    # MATPOWER files often carry Inf reactive limits; the parser ignores them
    for col, token in ((3, "Inf"), (4, "-Inf")):
        assert parse_case(_case14_with("gen", 1, col, token), name="case14") == case14


def test_out_of_service_generator_ignored():
    text = TOY2_TEXT.replace(
        "mpc.gen = [", "mpc.gen = [\n\t2\t0\t0\t0\t0\t1.05\t100\t0\t0\t0;"
    )
    case = parse_case(text)
    # the dead generator at bus 2 contributes nothing, bus 2 stays PQ-shaped
    assert len(case.generators) == 1
    assert case.bus(2).v_setpoint == pytest.approx(1.0)


def test_gencost_is_ignored(case14):
    # the bundled file carries a gencost block; parsing it must not leak in
    assert not hasattr(case14, "gencost")


def test_serialize_round_trip(case14, case30, toy2):
    for case in (case14, case30, toy2):
        again = parse_case(serialize_case(case), name=case.name)
        assert again == case


def test_edited_pv_setpoint_round_trips(case14):
    # the bus holds the regulated magnitude; the gen rows are written from it
    buses = tuple(replace(b, v_setpoint=1.06) if b.id == 2 else b for b in case14.buses)
    again = parse_case(serialize_case(replace(case14, buses=buses)), name="case14")
    assert again.bus(2).v_setpoint == 1.06
    sol = solve_power_flow(again, nominal_injections(again))
    assert sol.converged and sol.v[again.bus_index()[2]] == 1.06


def _exact_facts(case):
    return (
        case.base_mva,
        [(b.id, b.kind, b.v_setpoint) for b in case.buses],
        [g.bus for g in case.generators],
        [(br.from_bus, br.to_bus, br.r, br.x, br.b_charging, br.tap_ratio, br.in_service)
         for br in case.branches],
    )


def _per_unit(case):
    rows = [(b.p_load, b.q_load, b.g_shunt, b.b_shunt) for b in case.buses]
    return np.array(rows).ravel(), np.array([g.p_gen for g in case.generators])


@seed(31973240029450330520305076295413486332289440496664636425231291825444432876806909823798214661287891732971435301249033)
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_round_trip_keeps_edits(case14, case30, data):
    case = data.draw(st.sampled_from([case14, case30]), label="case")
    pq = [b.id for b in case.buses if b.kind is BusKind.PQ]
    factors = data.draw(st.lists(st.floats(0.0, 4.0), min_size=len(pq), max_size=len(pq)))
    case = scale_loads(case, dict(zip(pq, factors)))
    n_reg, n_br = len(case.buses) - len(pq), len(case.branches)
    setpoints = iter(data.draw(st.lists(st.floats(0.9, 1.1), min_size=n_reg, max_size=n_reg)))
    out = data.draw(st.lists(st.booleans(), min_size=n_br, max_size=n_br), label="out of service")
    tap = st.one_of(st.just(1.0), st.floats(0.85, 1.15))
    taps = data.draw(st.lists(tap, min_size=n_br, max_size=n_br), label="taps")
    edited = replace(
        case,
        buses=tuple(
            b if b.kind is BusKind.PQ else replace(b, v_setpoint=next(setpoints))
            for b in case.buses
        ),
        branches=tuple(
            replace(br, in_service=br.in_service and not o, tap_ratio=t)
            for br, o, t in zip(case.branches, out, taps)
        ),
    )
    again = parse_case(serialize_case(edited), name=edited.name)
    assert _exact_facts(again) == _exact_facts(edited)
    # per-unit values pass through MW/MVar: one multiply and one divide by the base
    for got, want in zip(_per_unit(again), _per_unit(edited)):
        assert_array_max_ulp(got, want, maxulp=2)


def test_admittance_lossless_two_bus(toy2):
    y = build_admittance(toy2)
    assert_allclose(y.real, np.zeros((2, 2)), atol=1e-15)
    assert_allclose(y.imag, [[-10.0, 10.0], [10.0, -10.0]], atol=1e-12)


def test_admittance_lossy_two_bus():
    text = TOY2_TEXT.replace("\t1\t2\t0\t0.1", "\t1\t2\t0.01\t0.1")
    y = build_admittance(parse_case(text))
    # 1/(0.01 + j0.1) = 0.990099... - j9.90099...
    assert y.real[0, 1] == pytest.approx(-0.9900990099009901)
    assert y.imag[0, 1] == pytest.approx(9.900990099009901)
    assert y.real[0, 0] == pytest.approx(0.9900990099009901)


def test_admittance_sparsity_matches_topology(case14):
    y = build_admittance(case14)
    index = case14.bus_index()
    linked = np.zeros((14, 14), dtype=bool)
    for br in case14.branches:
        if br.in_service:
            f, t = index[br.from_bus], index[br.to_bus]
            linked[f, t] = linked[t, f] = True
    off = ~np.eye(14, dtype=bool)
    nonzero = (np.abs(y.real) > 1e-14) | (np.abs(y.imag) > 1e-14)
    assert np.array_equal(nonzero & off, linked)


def test_admittance_symmetric(case14, case30, toy2):
    # no phase shifters in scope, so Y stays symmetric even with off-nominal taps
    for case in (case14, case30, toy2):
        y = build_admittance(case)
        assert_allclose(y.real, y.real.T, atol=1e-12)
        assert_allclose(y.imag, y.imag.T, atol=1e-12)


def _expected_row_sums(case):
    """Recompute Y-bus row sums straight from the branch list.

    For a branch with from-side tap t the row sum picks up the charging
    term scaled by the terminal's tap factor plus a series imbalance
    y*(1/t^2 - 1/t) on the from side and y*(1 - 1/t) on the to side;
    with t = 1 both reduce to half the charging susceptance.
    """
    index = case.bus_index()
    total = np.zeros(case.n_buses, dtype=complex)
    for b in case.buses:
        total[index[b.id]] += complex(b.g_shunt, b.b_shunt)
    for br in case.branches:
        if not br.in_service:
            continue
        y = 1.0 / complex(br.r, br.x)
        sh = complex(0.0, br.b_charging / 2.0)
        t = br.tap_ratio
        total[index[br.from_bus]] += sh / (t * t) + y * (1.0 / (t * t) - 1.0 / t)
        total[index[br.to_bus]] += sh + y * (1.0 - 1.0 / t)
    return total


def test_admittance_row_sums(case14, case30, toy2):
    for case in (case14, case30, toy2):
        y = build_admittance(case)
        want = _expected_row_sums(case)
        assert_allclose(y.real.sum(axis=1), want.real, atol=1e-12)
        assert_allclose(y.imag.sum(axis=1), want.imag, atol=1e-12)


def test_row_sum_is_shunt_on_tapless_buses(case14):
    # away from transformer terminals the row sum is exactly the bus shunt
    # plus half the charging of each incident line
    y = build_admittance(case14)
    index = case14.bus_index()
    tap_buses = set()
    shunt = {b.id: b.b_shunt for b in case14.buses}
    for br in case14.branches:
        if br.tap_ratio != 1.0:
            tap_buses.update((br.from_bus, br.to_bus))
        else:
            shunt[br.from_bus] += br.b_charging / 2.0
            shunt[br.to_bus] += br.b_charging / 2.0
    checked = 0
    for bus_id, k in index.items():
        if bus_id in tap_buses:
            continue
        assert y.imag[k].sum() == pytest.approx(shunt[bus_id], abs=1e-12)
        checked += 1
    assert checked >= 8


def test_trip_branch(case14):
    tripped = trip_branch(case14, 4, 5)
    y = build_admittance(tripped)
    index = tripped.bus_index()
    assert y.imag[index[4], index[5]] == 0.0
    assert y.real[index[4], index[5]] == 0.0
    # original case untouched
    assert all(br.in_service for br in case14.branches)


def test_trip_matches_branch_removed_from_text(case14):
    from importlib import resources

    text = resources.files("voltctrl").joinpath("data", "case14.m").read_text()
    kept = [l for l in text.splitlines() if not l.startswith("\t4\t5\t")]
    pruned = parse_case("\n".join(kept))
    a = build_admittance(trip_branch(case14, 4, 5))
    b = build_admittance(pruned)
    assert_allclose(a.real, b.real, atol=1e-15)
    assert_allclose(a.imag, b.imag, atol=1e-15)


def test_cached_topology_follows_edits(case14):
    # an edit returns a new case, whose topology is its own Y and partition
    # even when the parent's cache is already filled; a load edit shares
    # the parent's, since loads enter neither
    case14.topology
    edited = [
        trip_branch(case14, 4, 5),
        scale_loads(case14, 3.1),
        case14.with_controllers([4, 9, 14]),
    ]
    for case in [case14, *edited]:
        fresh = build_admittance(case)
        assert np.array_equal(case.topology.y, fresh)
        assert partition_buses(case) is partition_buses(case) is case.topology.partition
    ids = [edited[2].buses[i].id for i in partition_buses(edited[2]).controlled]
    assert ids == [4, 9, 14]
    assert not np.array_equal(edited[0].topology.y, case14.topology.y)


def test_load_edits_share_the_unscaled_case_topology(monkeypatch, case14):
    # copies of a case whose topology was never built, and copies of those
    # copies, read one topology: the unscaled case's, built by one Y build
    # at whichever first use comes first
    builds = []
    build = netcase.build_admittance
    monkeypatch.setattr(netcase, "build_admittance", lambda case: builds.append(case) or build(case))
    fresh = load_case("case14")
    once, twice = scale_loads(fresh, {9: 1.5}), scale_loads(scale_loads(fresh, 2.0), 0.5)
    top = twice.topology
    assert len(builds) == 1 and builds[0] is fresh
    assert once.topology is fresh.topology is scale_loads(once, 3.0).topology is top
    assert len(builds) == 1
    # an islanded case's topology is never built, so each scaled copy
    # fails where its parent does: at its own first use
    island = _with_island(case14, (15,), False)
    scaled = scale_loads(island, 2.0)
    for case in (scaled, island):
        with pytest.raises(IslandingError, match=r"buses \[15\] cannot be reached"):
            case.topology


def test_trip_missing_branch(case14):
    with pytest.raises(CaseDataError, match="no in-service branch"):
        trip_branch(case14, 1, 14)


def test_trip_islanding(toy2):
    with pytest.raises(IslandingError):
        trip_branch(toy2, 1, 2)


def _with_island(case, ids, joined):
    """The case plus PQ buses the slack cannot reach, each alone or all joined in a chain."""
    extra = tuple(Bus(id=i, kind=BusKind.PQ, p_load=0.1, q_load=0.05) for i in ids)
    chain = tuple(Branch(a, b, r=0.01, x=0.1) for a, b in zip(ids, ids[1:]) if joined)
    return replace(case, buses=case.buses + extra, branches=case.branches + chain)


@pytest.mark.parametrize("ids, joined", [((15,), False), ((15, 16), False), ((15, 16), True)])
def test_an_islanded_case_parses_and_its_topology_names_the_cut_off_buses(case14, ids, joined):
    # the case is valid data, so it serializes and parses; the slack's
    # reach is checked where the topology is first built, which every
    # power flow and sensitivity build takes
    case = parse_case(serialize_case(_with_island(case14, ids, joined)), name="island")
    names = ", ".join(map(str, ids))
    message = rf"^the network is islanded: buses \[{names}\] cannot be reached from slack bus 1$"
    with pytest.raises(IslandingError, match=message):
        case.topology
    with pytest.raises(IslandingError, match=message):
        solve_power_flow(case, nominal_injections(case))


def test_an_unknown_bus_id_is_a_case_data_error(case14):
    with pytest.raises(CaseDataError, match=r"^no bus with id 99$"):
        case14.bus(99)
    with pytest.raises(CaseDataError, match=r"^no bus with id 99$"):
        scale_loads(case14, {99: 1.5})


def test_trip_reversed_endpoints(case14):
    assert trip_branch(case14, 5, 4) == trip_branch(case14, 4, 5)


def test_scale_loads_identity(case14):
    assert scale_loads(case14, 1.0) == case14


def test_scale_loads_zero(case14):
    flat = scale_loads(case14, 0.0)
    for b in flat.buses:
        if b.kind is BusKind.PQ:
            assert b.p_load == 0.0 and b.q_load == 0.0


def test_scale_loads_leaves_pv_alone(case14):
    doubled = scale_loads(case14, 2.0)
    for b in doubled.buses:
        orig = case14.bus(b.id)
        if b.kind is BusKind.PQ:
            assert b.p_load == pytest.approx(2 * orig.p_load)
        else:
            assert b.p_load == orig.p_load
            assert b.q_load == orig.q_load


def test_scale_loads_per_bus_map(case14):
    scaled = scale_loads(case14, {9: 1.5, 14: 0.5})
    assert scaled.bus(9).p_load == pytest.approx(1.5 * case14.bus(9).p_load)
    assert scaled.bus(14).q_load == pytest.approx(0.5 * case14.bus(14).q_load)
    assert scaled.bus(10) == case14.bus(10)


def test_scale_loads_rejects_negative(case14):
    with pytest.raises(CaseDataError):
        scale_loads(case14, -0.1)
    with pytest.raises(CaseDataError):
        scale_loads(case14, {9: -1.0})
    for factor in (float("nan"), float("inf")):
        with pytest.raises(CaseDataError, match=f"^load factor {factor} must be nonnegative"):
            scale_loads(case14, factor)
        with pytest.raises(CaseDataError, match=f"^bus 9: load factor {factor} must be"):
            scale_loads(case14, {9: factor})


def test_scale_loads_rejects_pv_key(case14):
    with pytest.raises(CaseDataError, match="PQ"):
        scale_loads(case14, {2: 1.5})


def test_with_controllers(case14):
    trimmed = case14.with_controllers([4, 9, 14])
    assert [b.id for b in trimmed.buses if b.has_controller] == [4, 9, 14]
    with pytest.raises(CaseDataError, match="controller at non-PQ bus 2"):
        case14.with_controllers([2])  # PV bus
    with pytest.raises(CaseDataError):
        case14.with_controllers([77])


def test_bundled_files_parse_to_loaded_cases():
    from importlib import resources

    for name in ("case14", "case30"):
        text = resources.files("voltctrl").joinpath("data", f"{name}.m").read_text()
        assert parse_case(text, name=name) == load_case(name)


def test_load_case_unknown_name():
    with pytest.raises(CaseDataError):
        load_case("case118")
