import errno
import os
import re
import shutil

import numpy as np
import pytest

from _oracles import road_distance_factor
from owa_explorer.cli import main
from owa_explorer.errors import DataError, UnknownClass
from owa_explorer.grid import GridMeta, Raster, write_ascii_grid
from owa_explorer.prep import (
    CATEGORICAL_BUILTINS,
    CapacityMatrix,
    ExpertVotes,
    ModifierRule,
    apply_modifier,
    build_criterion,
    continuous_98,
    criterion_weight_from_votes,
    load_capacity_matrix,
    load_expert_votes,
)


def _matrix(**pairs):
    scores = {}
    classes = set()
    services = set()
    for (cls, svc), vals in pairs.get("scores", {}).items():
        scores[(cls, svc)] = tuple(vals)
        classes.add(cls)
        services.add(svc)
    return CapacityMatrix(
        luc_classes=tuple(sorted(classes)),
        services=tuple(sorted(services)),
        scores=scores,
        n_experts=pairs.get("n_experts", 2),
    )


def test_mean_expert_score_examples(meta):
    # mean scores 1.0, 0.0 and 0.5 complement to suitabilities 0, 1 and 0.5
    m = _matrix(scores={(1, "s"): [5, 5], (2, "s"): [0, 0, 0], (3, "s"): [2, 3]}, n_experts=3)
    out = build_criterion(Raster(meta, np.array([1.0, 2.0, 3.0, 1.0])), m, "s")
    assert out.values.tolist() == [0.0, 1.0, 0.5, 0.0]


def test_mean_expert_score_unknown(meta):
    m = _matrix(scores={(1, "s"): [3]}, n_experts=1)
    with pytest.raises(UnknownClass):
        build_criterion(Raster(meta, np.array([1.0, 99.0, 1.0, 1.0])), m, "s")
    with pytest.raises(DataError, match="^service 'nope' not in the capacity matrix$"):
        build_criterion(Raster(meta, np.ones(4)), m, "nope")


def test_capacity_matrix_rejects_bad_scores():
    with pytest.raises(DataError, match=re.escape("score 6 for class 1, service 's' outside [0, 5.0]")):
        _matrix(scores={(1, "s"): [6]}, n_experts=1)
    with pytest.raises(DataError, match="^capacity matrix needs at least one expert$"):
        CapacityMatrix(luc_classes=(1,), services=("s",), scores={}, n_experts=0)


def test_invert_examples(meta):
    # capacity 1 (score 5/5) -> 0, capacity 0 -> 1, capacity 0.4 * 0.5
    # (score 2/5, flooding "medium") -> 0.8
    m = _matrix(scores={(1, "s"): [5], (2, "s"): [0], (3, "s"): [2]}, n_experts=1)
    luc = Raster(meta, np.array([1.0, 2.0, 3.0, 3.0]))
    flood = Raster(meta, np.array([1.0, 1.0, 2.0, 2.0]))
    rule = ModifierRule(kind="categorical", table=CATEGORICAL_BUILTINS["flooding"])
    out = build_criterion(luc, m, "s", rule, flood).values
    assert out[0] == 0.0
    assert out[1] == 1.0
    assert out[2] == pytest.approx(0.8, abs=1e-15)
    # a capacity above 1 cannot arise: factors and scaled scores stay in [0, 1]
    with pytest.raises(DataError, match=re.escape("factor 1.2 for category 1 outside [0, 1]")):
        ModifierRule(kind="categorical", table={1: 1.2})


def test_soil_table():
    soil = CATEGORICAL_BUILTINS["soil_quality"]
    assert soil[1] == 1.0
    assert soil[16] == pytest.approx(0.25, abs=1e-12)
    assert len(soil) == 16
    steps = [soil[k] - soil[k + 1] for k in range(1, 16)]
    assert all(s == pytest.approx(0.05, abs=1e-12) for s in steps)


def test_flooding_table():
    assert CATEGORICAL_BUILTINS["flooding"] == {1: 1.0, 2: 0.5, 3: 0.0}  # high, medium, none


def test_fire_table():
    fire = CATEGORICAL_BUILTINS["fire_hazard"]
    assert list(fire) == [1, 2, 3, 4, 5, 6]  # very high .. none
    assert list(fire.values()) == [1.0, 0.9, 0.8, 0.7, 0.6, 0.5]


def test_protected_table():
    assert CATEGORICAL_BUILTINS["protected_area"] == {1: 1.0, 0: 0.75}  # inside, outside


def test_all_builtin_factors_in_range():
    for table in CATEGORICAL_BUILTINS.values():
        assert all(0.0 <= f <= 1.0 for f in table.values())


def test_categorical_factor_lookup(meta):
    soil = ModifierRule(kind="categorical", table=CATEGORICAL_BUILTINS["soil_quality"])
    assert apply_modifier(soil, Raster(meta, np.ones(4))).values[0] == 1.0
    flood = ModifierRule(kind="categorical", table=CATEGORICAL_BUILTINS["flooding"])
    assert apply_modifier(flood, Raster(meta, np.full(4, 2.0))).values[0] == 0.5  # medium
    rule = ModifierRule(kind="categorical", table={1: 0.9})
    assert apply_modifier(rule, Raster(meta, np.ones(4))).values[0] == 0.9
    with pytest.raises(DataError, match="^category 2 is not in the table$"):
        apply_modifier(rule, Raster(meta, np.array([1.0, 2.0, 1.0, 1.0])))


@pytest.fixture
def meta():
    return GridMeta(ncols=4, nrows=1, xllcorner=0, yllcorner=0, cellsize=1)


def test_continuous_98(meta):
    r = Raster(meta, np.array([9.8, 10.0, 4.9, 0.0]))
    out = continuous_98(r)
    assert out.values[0] == pytest.approx(1.0, abs=1e-12)  # 0.98 * max
    assert out.values[1] == 1.0  # clamped above
    assert out.values[2] == pytest.approx(0.5, abs=1e-12)  # 0.49 * max
    assert out.values[3] == 0.0


def test_continuous_98_nodata_and_errors(meta):
    r = Raster(meta, np.array([1.0, -9999.0, 2.0, 3.0]))
    out = continuous_98(r)
    assert out.valid_mask.tolist() == [True, False, True, True]
    with pytest.raises(DataError, match="^raster has no valid cells$"):
        continuous_98(Raster(meta, np.full(4, -9999.0)))
    with pytest.raises(DataError, match="^negative value -0.5 in a non-negative raster$"):
        continuous_98(Raster(meta, np.array([1.0, -0.5, 2.0, 3.0])))


def test_continuous_98_all_zero(meta):
    # no valid value above 0: every valid factor is 0 and nodata stays
    out = continuous_98(Raster(meta, np.array([0.0, -9999.0, 0.0, 0.0])))
    assert out.values.tolist() == [0.0, -9999.0, 0.0, 0.0]


def test_continuous_98_scale_invariant(meta):
    rng = np.random.default_rng(6)
    vals = rng.random(4) * 100
    a = continuous_98(Raster(meta, vals))
    b = continuous_98(Raster(meta, vals * 2.0))  # power of two: exact
    assert np.array_equal(a.values, b.values)
    c = continuous_98(Raster(meta, vals * 3.7))
    assert np.abs(a.values - c.values).max() <= 1e-12


def _road_ramp(ds) -> list[float]:
    """apply_modifier's default ramp over the distances ds, checked bit
    for bit against the scalar oracle."""
    meta = GridMeta(ncols=len(ds), nrows=1, xllcorner=0, yllcorner=0, cellsize=1)
    vals = apply_modifier(ModifierRule(kind="piecewise_distance"), Raster(meta, np.asarray(ds))).values
    assert vals.tolist() == [road_distance_factor(float(d)) for d in ds]
    return vals.tolist()


def test_road_distance_examples():
    assert _road_ramp([100.0, 650.0, 2000.0, 300.0, 1000.0]) == [
        1.0, pytest.approx(0.75, abs=1e-12), 0.5, 1.0, pytest.approx(0.5, abs=1e-12)
    ]
    with pytest.raises(DataError, match="^distance -1.0 is negative$"):
        road_distance_factor(-1.0)
    with pytest.raises(DataError, match="^negative distance -1.0 in the raster$"):
        _road_ramp([100.0, -1.0])


def test_road_distance_continuous_non_increasing():
    ds = np.linspace(0.0, 2500.0, 2001)
    vals = _road_ramp(ds)
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12
        assert abs(b - a) <= 0.51 * (ds[1] - ds[0]) / 700.0 + 1e-12  # no jumps


def test_criterion_weight_from_votes():
    assert criterion_weight_from_votes(ExpertVotes(13, 13)) == 1.0
    assert criterion_weight_from_votes(ExpertVotes(1, 2)) == 0.5
    assert criterion_weight_from_votes(ExpertVotes(0, 5, override_weight=1.0)) == 1.0
    with pytest.raises(DataError, match="^no expert considered the service important; weight would be 0$"):
        criterion_weight_from_votes(ExpertVotes(0, 5))
    # Table-style ratios like 0.53 come out of integer vote counts
    assert criterion_weight_from_votes(ExpertVotes(8, 15)) == pytest.approx(0.53, abs=0.005)


def test_expert_votes_validation():
    with pytest.raises(DataError, match=re.escape("vote count 3 outside [0, 2]")):
        ExpertVotes(3, 2)
    with pytest.raises(DataError, match="^total experts must be >= 1, got 0$"):
        ExpertVotes(0, 0)
    for override in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(DataError, match=f"^override weight {override} is not finite and > 0$"):
            ExpertVotes(1, 2, override_weight=override)


def test_apply_modifier_categorical(meta):
    rule = ModifierRule(kind="categorical", table={1: 1.0, 2: 0.5, 3: 0.0})
    r = Raster(meta, np.array([1.0, 2.0, 3.0, -9999.0]))
    out = apply_modifier(rule, r)
    assert out.values[:3].tolist() == [1.0, 0.5, 0.0]
    assert out.valid_mask.tolist() == [True, True, True, False]
    with pytest.raises(DataError, match="^category 9 is not in the table$"):
        apply_modifier(rule, Raster(meta, np.array([1.0, 9.0, 3.0, 2.0])))


def test_apply_modifier_piecewise(meta):
    rule = ModifierRule(kind="piecewise_distance")
    r = Raster(meta, np.array([0.0, 650.0, 1500.0, 300.0]))
    out = apply_modifier(rule, r)
    assert out.values.tolist() == pytest.approx([1.0, 0.75, 0.5, 1.0], abs=1e-12)
    with pytest.raises(DataError, match="^negative distance -2.0 in the raster$"):
        apply_modifier(rule, Raster(meta, np.array([0.0, -2.0, 5.0, 1.0])))


def test_modifier_rule_validation():
    with pytest.raises(DataError, match="^unknown modifier kind 'nonsense'$"):
        ModifierRule(kind="nonsense")
    with pytest.raises(DataError, match=re.escape("factor 1.5 for category 1 outside [0, 1]")):
        ModifierRule(kind="categorical", table={1: 1.5})
    with pytest.raises(DataError, match="^need 0 < d1 < d2, got d1=500.0, d2=400.0$"):
        ModifierRule(kind="piecewise_distance", d1=500.0, d2=400.0)


def test_build_criterion_max_capacity_unsuitable(meta):
    m = _matrix(scores={(1, "s"): [5, 5]}, n_experts=2)
    luc = Raster(meta, np.array([1.0, 1.0, 1.0, 1.0]))
    out = build_criterion(luc, m, "s")
    assert np.array_equal(out.values, np.zeros(4))


def test_build_criterion_with_modifier(meta):
    # mean score 0.8, flooding "medium" factor 0.5 -> capacity 0.4 -> suitability 0.6
    m = _matrix(scores={(1, "s"): [4, 4]}, n_experts=2)
    luc = Raster(meta, np.ones(4))
    flood = Raster(meta, np.full(4, 2.0))  # code 2 = medium
    rule = ModifierRule(kind="categorical", table=CATEGORICAL_BUILTINS["flooding"])
    out = build_criterion(luc, m, "s", rule, flood)
    assert np.allclose(out.values, 0.6, atol=1e-12)


def test_build_criterion_nodata_propagates(meta):
    m = _matrix(scores={(1, "s"): [5]}, n_experts=1)
    luc = Raster(meta, np.array([1.0, -9999.0, 1.0, 1.0]))
    modifier = Raster(meta, np.array([100.0, 100.0, -9999.0, 50.0]))
    out = build_criterion(luc, m, "s", ModifierRule(kind="continuous_98"), modifier)
    assert out.valid_mask.tolist() == [True, False, False, True]


def test_build_criterion_alignment_and_unknown(meta):
    m = _matrix(scores={(1, "s"): [5]}, n_experts=1)
    other = GridMeta(ncols=4, nrows=1, xllcorner=9.0, yllcorner=0, cellsize=1)
    with pytest.raises(DataError, match="^modifier raster is not aligned with the land-cover raster$"):
        build_criterion(
            Raster(meta, np.ones(4)), m, "s",
            ModifierRule(kind="continuous_98"), Raster(other, np.ones(4)),
        )
    with pytest.raises(UnknownClass):
        build_criterion(Raster(meta, np.array([1.0, 7.0, 1.0, 1.0])), m, "s")
    with pytest.raises(DataError, match="^a modifier rule and its raster must be given together$"):
        build_criterion(Raster(meta, np.ones(4)), m, "s", ModifierRule(kind="continuous_98"), None)


def test_build_criterion_monotone_in_scores(meta):
    rng = np.random.default_rng(9)
    luc = Raster(meta, np.array([1.0, 2.0, 1.0, 2.0]))
    for _ in range(20):
        s1 = rng.uniform(0, 4.9)
        bump = rng.uniform(0, 5 - s1)
        m_lo = _matrix(scores={(1, "s"): [s1], (2, "s"): [2]}, n_experts=1)
        m_hi = _matrix(scores={(1, "s"): [s1 + bump], (2, "s"): [2]}, n_experts=1)
        lo = build_criterion(luc, m_lo, "s").values
        hi = build_criterion(luc, m_hi, "s").values
        assert (hi <= lo + 1e-12).all()


def test_csv_loaders(tmp_path):
    cap = tmp_path / "cap.csv"
    cap.write_text(
        "expert_id,luc_class,service,score\n"
        "e1,1,crops,4\ne2,1,crops,2\ne1,2,crops,0\ne2,2,crops,1\n"
    )
    m = load_capacity_matrix(cap)
    assert m.n_experts == 2
    luc = Raster(GridMeta(ncols=1, nrows=1, xllcorner=0, yllcorner=0, cellsize=1), np.ones(1))
    assert 1.0 - build_criterion(luc, m, "crops").values[0] == pytest.approx(0.6)

    votes = tmp_path / "votes.csv"
    votes.write_text(
        "service,votes,total,override_weight\ncrops,7,13,\nconnectivity,2,13,1.0\n"
    )
    v = load_expert_votes(votes)
    assert criterion_weight_from_votes(v["crops"]) == pytest.approx(7 / 13)
    assert criterion_weight_from_votes(v["connectivity"]) == 1.0


_PREP_CFG = (
    "[inputs]\n"
    "luc = luc.asc\ncapacity_matrix = cap.csv\nvotes = votes.csv\n\n"
    "[criterion:crops]\nservice = crops\nmodifier = categorical:soil_quality\n"
    "modifier_grid = soil.asc\n\n"
    "[criterion:fun]\nservice = fun\n\n"
    "[criterion:ready]\ngrid = ready.asc\n"
)

# id: (edits as (file, old, new), exit code, what stderr must name)
_MALFORMED_PREP = {
    "weight": (
        [("prep.cfg", "service = crops\n", "service = crops\nweight = -1\n"),
         ("prep.cfg", "service = fun\n", "service = fun\nweight = abc\n")],
        2, ["[criterion:crops] weight = -1", "[criterion:fun] weight = abc"],
    ),
    "d1": (
        [("prep.cfg", "service = fun\n",
          "service = fun\nmodifier = piecewise_distance\nmodifier_grid = soil.asc\nd1 = abc\n")],
        2, ["[criterion:fun] d1 = abc"],
    ),
    "score_max": (
        [("prep.cfg", "votes = votes.csv\n", "votes = votes.csv\nscore_max = abc\n")],
        2, ["[inputs] score_max = abc"],
    ),
    "table": (
        [("prep.cfg", "modifier = categorical:soil_quality\n", "modifier = categorical\ntable = 1:1.0, 16\n")],
        2, ["[criterion:crops] table = 1:1.0, 16", "'16'"],
    ),
    "capacity_score": (
        [("cap.csv", "e2,1,crops,2\n", "e2,1,crops,abc\n"), ("cap.csv", "e1,1,fun,1\n", "e1,1,fun,9\n")],
        3, ["cap.csv:3", "cap.csv:6"],
    ),
    "votes": (
        [("votes.csv", "fun,4,13,", "fun,x,13,"), ("votes.csv", "ready,0,13,1.0", "ready,0,13,inf")],
        3, ["votes.csv:3", "votes.csv:4"],
    ),
    "duplicate_key": (
        [("prep.cfg", "service = fun\n", "service = fun\nservice = fun\n")],
        2, ["'service'", "'criterion:fun'"],
    ),
    "no_section_header": ([("prep.cfg", "[inputs]\n", "")], 2, ["prep.cfg", "line: 1"]),
    "modifier_typo": (
        [("prep.cfg", "modifier = categorical", "modifer = categorical")],
        2, ["[criterion:crops] modifer = categorical:soil_quality", "[criterion:crops] modifier_grid"],
    ),
    "section_typo": ([("prep.cfg", "[criterion:crops]", "[criterio:crops]")], 2, ["[criterio:crops]"]),
    "unknown_service": (
        [("prep.cfg", "service = fun\n", "service = nofun\n")], 3, ["[criterion:fun]", "'nofun'"],
    ),
    "name_separator": (
        [("prep.cfg", "[criterion:fun]", "[criterion:fun,x]"), ("prep.cfg", "[criterion:ready]", "[criterion:re#ady]")],
        2, ["[criterion:fun,x]", "[criterion:re#ady]"],
    ),
    "name_path": (
        [("prep.cfg", "[criterion:crops]", "[criterion:cr/ops]"), ("prep.cfg", "[criterion:fun]", "[criterion: fun]")],
        2, ["[criterion:cr/ops]", "[criterion: fun]"],
    ),
    "grid_frame": (
        [("ready.asc", "xllcorner 0\n", "xllcorner 5\n")], 3, ["[criterion:ready]", "ready.asc", "luc.asc"],
    ),
    # a grid's header error names the grid's file
    "luc_header": ([("luc.asc", "xllcorner 0\n", "")], 3, ["luc.asc: missing header keys: xllcorner"]),
    "grid_header": ([("ready.asc", "cellsize 1\n", "")], 3, ["ready.asc: missing header keys: cellsize"]),
    "modifier_header": ([("soil.asc", "nrows 2\n", "")], 3, ["soil.asc: missing header keys: nrows"]),
    "unknown_builtin": (
        [("prep.cfg", "categorical:soil_quality", "categorical:nope")],
        2, ["[criterion:crops] modifier = categorical:nope: unknown builtin table; expected soil_quality"],
    ),
    "no_modifier_grid": (
        [("prep.cfg", "modifier_grid = soil.asc\n", "")],
        2, ["[criterion:crops] modifier = categorical:soil_quality: needs modifier_grid"],
    ),
    "no_criterion": (
        [("prep.cfg", _PREP_CFG[_PREP_CFG.index("[criterion:crops]"):], "")], 2, ["no [criterion:<name>] section"],
    ),
    "no_weight_no_votes": (
        [("prep.cfg", "votes = votes.csv\n", "")],
        2, [f"[criterion:{name}]: no weight, and [inputs] names no votes CSV" for name in ("crops", "fun", "ready")],
    ),
    "service_without_matrix": (
        [("prep.cfg", "capacity_matrix = cap.csv\n", "")],
        2, [f"[criterion:{name}]: derives from a service, but [inputs] lacks luc or capacity_matrix"
            for name in ("crops", "fun")],
    ),
    "votes_without_row": (
        [("votes.csv", "fun,4,13,\n", "")], 3, ["[criterion:fun]: no weight, and votes.csv has no 'fun' row"],
    ),
    "capacity_header": (
        [("cap.csv", "service,score\n", "service,points\n")], 3, ["cap.csv:1: header lacks column(s) score"],
    ),
    "categorical_fraction": (
        [("soil.asc", " 16\n", " 2.5\n")], 3,
        ["[criterion:crops] soil.asc: cell value 2.5 is not an integer category code"],
    ),
    "unknown_luc_class": (
        [("luc.asc", "\n1 2 1 -9999", "\n1 7 1 -9999")], 3,
        ["[criterion:crops] luc.asc: land-cover class 7 is not in the table"],
    ),
    # "\udcff" is written as the byte 0xff, which is not UTF-8 text
    "luc_not_text": ([("luc.asc", "nrows 2\n", "nrows \udcff\n")], 3, ["luc.asc: byte 0xff"]),
    # a file that cannot be read is named like one that does not parse, in
    # config order; an edit with no new text deletes the file, and {tmp}
    # stands for the directory of the inputs
    "missing_and_malformed": (
        [("luc.asc", None, None), ("cap.csv", "e1,1,crops,4\n", "e1,1,crops,x\n"), ("ready.asc", "cellsize 1\n", "")],
        3, [f"data error: [inputs] {{tmp}}{os.sep}luc.asc: {os.strerror(errno.ENOENT)}; ",
            f"[inputs] {{tmp}}{os.sep}cap.csv:2: could not convert string to float: 'x'; ",
            f"[criterion:ready] {{tmp}}{os.sep}ready.asc: missing header keys: cellsize\n"],
    ),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_PREP))
def test_cli_prep_rejects_malformed_input(tmp_path, capsys, case):
    # the whole config is checked, and every layer built, before anything
    # is written: each defect exits 2 (config) or 3 (data) with no output
    meta = GridMeta(ncols=4, nrows=2, xllcorner=0, yllcorner=0, cellsize=1)
    grids = {
        "luc.asc": [1, 1, 2, 2, 1, 2, 1, -9999],
        "soil.asc": [1, 16, 1, 16, 1, 1, 16, 1],
        "ready.asc": np.linspace(0.0, 1.0, 8),
    }
    files = {name: write_ascii_grid(Raster(meta, np.asarray(values, dtype=float))) for name, values in grids.items()}
    files |= {
        "cap.csv": "expert_id,luc_class,service,score\n"
        "e1,1,crops,4\ne2,1,crops,2\ne1,2,crops,5\ne2,2,crops,5\n"
        "e1,1,fun,1\ne2,1,fun,3\ne1,2,fun,0\ne2,2,fun,0\n",
        "votes.csv": "service,votes,total,override_weight\ncrops,7,13,\nfun,4,13,\nready,0,13,1.0\n",
        "prep.cfg": _PREP_CFG,
    }
    out = tmp_path / "out"
    args = ["prep", "--config", str(tmp_path / "prep.cfg"), "--out", str(out)]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(args) == 0  # the unedited inputs are valid
    shutil.rmtree(out)
    capsys.readouterr()

    edits, code, named = _MALFORMED_PREP[case]
    for name, old, new in edits:
        if new is None:
            del files[name]
            (tmp_path / name).unlink()
            continue
        assert old in files[name]
        files[name] = files[name].replace(old, new, 1)
    for name, text in files.items():
        (tmp_path / name).write_bytes(text.encode(errors="surrogateescape"))
    assert main(args) == code
    err = capsys.readouterr().err
    at = [err.index(item.replace("{tmp}", str(tmp_path))) for item in named]  # ValueError if one is not named
    assert at == sorted(at)  # in config order
    assert not out.exists()
