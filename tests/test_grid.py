import os
import re
import tracemalloc

import numpy as np
import pytest

from _oracles import parse_body_scalar, write_ascii_grid_per_cell
from owa_explorer import grid
from owa_explorer.errors import DataError
from owa_explorer.grid import (
    _BLOCK_CELLS,
    _READ_CELLS,
    CriterionWeights,
    GridMeta,
    Raster,
    build_stack,
    parse_ascii_grid,
    write_ascii_grid,
)

HEADER_2X1 = "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 5\nNODATA_value -9999\n"


def test_parse_basic():
    r = parse_ascii_grid(HEADER_2X1 + "0.2 0.8")
    assert r.meta.ncols == 2 and r.meta.nrows == 1
    assert r.values.tolist() == [0.2, 0.8]
    assert r.valid_mask.tolist() == [True, True]


def test_parse_wrong_cell_count():
    with pytest.raises(DataError, match="^expected 2 cells, got 1$"):
        parse_ascii_grid(HEADER_2X1 + "0.2")


def test_parse_refuses_a_header_far_larger_than_its_body():
    # the count is checked without room for the cells the header claims
    text = HEADER_2X1.replace("ncols 2\nnrows 1", "ncols 100000\nnrows 100000") + "0.2 0.8"
    with pytest.raises(DataError, match="^expected 10000000000 cells, got 2$"):
        parse_ascii_grid(text)


def test_parse_nodata_sentinel():
    r = parse_ascii_grid(HEADER_2X1 + "0.2 -9999")
    assert r.valid_mask.tolist() == [True, False]


def test_parse_header_case_insensitive():
    text = "NCOLS 2\nNrows 1\nXLLCORNER 0\nyllcorner 0\nCellSize 5\nnodata_VALUE -1\n0.2 0.8"
    r = parse_ascii_grid(text)
    assert r.meta.nodata_value == -1.0


def test_parse_nodata_defaults():
    text = "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 5\n0.1 0.2"
    assert parse_ascii_grid(text).meta.nodata_value == -9999.0


def test_parse_missing_key():
    with pytest.raises(DataError, match="^missing header keys: cellsize$"):
        parse_ascii_grid("ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\n0.1 0.2")


@pytest.mark.parametrize("text, message", [
    (HEADER_2X1.replace("ncols 2", "ncols 1.5") + "0.2 0.8", "ncols must be a positive integer, got 1.5"),
    (HEADER_2X1.replace("nrows 1", "nrows 0") + "0.2 0.8", "nrows must be a positive integer, got 0.0"),
    (" \n\t \r\n", "empty input"),
])
def test_parse_rejects_bad_dimensions_and_blank_input(text, message):
    with pytest.raises(DataError, match=re.escape(message)) as err:
        parse_ascii_grid(text, "g.asc")
    assert str(err.value) == f"g.asc: {message}"


def test_parse_duplicate_key():
    with pytest.raises(DataError, match="^duplicate header key 'ncols'$"):
        parse_ascii_grid("ncols 2\nncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 5\n0.1 0.2")


def test_parse_non_numeric_cell():
    with pytest.raises(DataError, match="^cell value 'abc' is not a number$"):
        parse_ascii_grid(HEADER_2X1 + "0.2 abc")


def test_parse_rejects_nan_cell():
    with pytest.raises(DataError, match="^cell 1 is not finite: 'nan'$"):
        parse_ascii_grid(HEADER_2X1 + "0.2 nan")


@pytest.mark.parametrize("key, value", [
    ("ncols", "inf"), ("nrows", "nan"), ("xllcorner", "nan"), ("yllcorner", "-inf"),
    ("cellsize", "inf"), ("NODATA_value", "nan"), ("NODATA_value", "inf"),
])
def test_parse_rejects_non_finite_header(key, value):
    lines = [line.split() for line in HEADER_2X1.splitlines()]
    text = "".join(f"{k} {value if k == key else v}\n" for k, v in lines)
    with pytest.raises(DataError, match=f"^header values must be finite: {key.lower()} {value}$"):
        parse_ascii_grid(text + "0.1 0.2")


def test_parse_names_every_non_finite_header_key():
    text = "ncols 2\nnrows 1\nxllcorner nan\nyllcorner 0\ncellsize inf\n0.1 0.2"
    with pytest.raises(DataError, match="^header values must be finite: xllcorner nan, cellsize inf$"):
        parse_ascii_grid(text)


@pytest.mark.parametrize("header, body, token", [
    (HEADER_2X1, "0.2 1_0", "'1_0'"), (HEADER_2X1.split("NODATA")[0], "1_0 0.2", "'1_0'"),
    (HEADER_2X1, "0.2 \u0661", "'\u0661'"), (HEADER_2X1, "0.2\xa00.3 0.4", "'0.2\\xa00.3'"),
])
def test_parse_rejects_cells_float_reads_but_ascii_does_not_hold(header, body, token):
    # float() reads 1_0 as 10.0 and an Arabic-Indic digit as 1.0, and
    # str.split() splits at a no-break space; "_" is ASCII but no number
    message = f"cell value {token} is not a number" if "_" in token else f"token {token} is not ASCII"
    with pytest.raises(DataError, match=f"^{re.escape(f'g.asc: {message}')}$"):
        parse_ascii_grid(header + body, "g.asc")


def test_parse_header_value_with_underscore():
    with pytest.raises(DataError, match="^header key 'cellsize' has non-numeric value '5_0'$"):
        parse_ascii_grid(HEADER_2X1.replace("cellsize 5", "cellsize 5_0") + "0.1 0.2")


def test_parse_bytes_not_ascii_names_path_and_offset():
    data = (HEADER_2X1 + "0.2 0.\xe9").encode("latin-1")
    offset = len(data) - 1
    with pytest.raises(DataError, match=f"^g.asc: byte 0xe9 at offset {offset} is not UTF-8$"):
        parse_ascii_grid(data, "g.asc")


def test_parse_accepts_bytes():
    r = parse_ascii_grid((HEADER_2X1 + "0.25 0.75").encode("ascii"))
    assert r.values.tolist() == [0.25, 0.75]


def test_roundtrip_bit_exact(meta_2x1):
    r = Raster(meta_2x1, np.array([0.2, 0.8]))
    again = parse_ascii_grid(write_ascii_grid(r))
    assert again.values.tolist() == r.values.tolist()
    assert again.meta == r.meta


def test_roundtrip_awkward_values():
    rng = np.random.default_rng(7)
    meta = GridMeta(ncols=5, nrows=4, xllcorner=-3.1, yllcorner=47.123456789, cellsize=0.1)
    values = rng.random(20)
    values[3] = 1.0 / 3.0
    values[7] = 1e-15
    values[11] = meta.nodata_value
    r = Raster(meta, values)
    again = parse_ascii_grid(write_ascii_grid(r))
    assert np.array_equal(again.values, r.values)
    assert again.meta.yllcorner == meta.yllcorner


def test_seventeen_digits_reparse():
    assert float(f"{0.1:.17g}") == 0.1


AWKWARD_VALUES = [-0.0, 5e-324, 2.2250738585072014e-308, 1e300, 0.1, 1.0, -9999.0]


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (3, 5)])
def test_writer_matches_per_cell_oracle(shape):
    nrows, ncols = shape
    meta = GridMeta(ncols=ncols, nrows=nrows, xllcorner=-3.1, yllcorner=47.123456789, cellsize=0.1)
    raster = Raster(meta, np.resize(np.array(AWKWARD_VALUES), meta.size))
    assert write_ascii_grid(raster) == write_ascii_grid_per_cell(raster)


def _writer_sweep() -> np.ndarray:
    """~1.05e6 seeded values over every case the writer formats apart:
    +-0, subnormals, 1e300 and -9999; every decade from 1e-6 to 1e16;
    nextafter neighbours of each 10^k and of the fixed-notation edges 1e-4
    and 1e15; exact ties at the 17th significant digit; both signs."""
    rng = np.random.default_rng(20261018)
    special = np.array([0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e300, -9999.0])
    decades = 10.0 ** rng.uniform(-6, 16, 400_000)
    edges = np.concatenate([10.0 ** np.arange(-6, 17), [1e-4, 1e15]])
    neighbours = [edges]
    for toward in (0.0, np.inf):
        near = edges
        for _ in range(8):
            near = np.nextafter(near, toward)
            neighbours.append(near)
    # odd N / 2^j where N * 5^j has 18 digits: the exact decimal value ends
    # in a 5 at the 18th digit, a tie that "%.17g" rounds half to even
    ties = []
    for j in range(2, 26):
        lo, hi = -(-(10**17) // 5**j), min(10**18 // 5**j, 2**53)
        odd = rng.integers(lo, hi, 16_000) | 1
        ties.append(np.ldexp(odd[odd < hi].astype(np.float64), -j))
    dyadic = np.ldexp(rng.integers(1, 2**53, 150_000).astype(np.float64), -rng.integers(0, 60, 150_000))
    signed = np.concatenate([decades, *neighbours, *ties, dyadic, rng.random(100_000)])
    signed *= rng.choice([-1.0, 1.0], signed.size)
    return np.concatenate([special, signed])


@pytest.fixture(scope="module")
def writer_sweep():
    return _writer_sweep()


@pytest.mark.parametrize(
    "nrows, ncols", [(1, 1), (1, 3 * _BLOCK_CELLS + 5), (3 * _BLOCK_CELLS + 5, 1), (1016, 1009)]
)
def test_writer_matches_per_cell_oracle_on_sweep(writer_sweep, nrows, ncols):
    # the last grid holds over 1e6 of the sweep's values; no cell count is
    # a multiple of the writer's block size
    meta = GridMeta(ncols=ncols, nrows=nrows, xllcorner=-3.1, yllcorner=47.123456789, cellsize=0.1)
    assert meta.size <= writer_sweep.size and meta.size % _BLOCK_CELLS != 0
    raster = Raster(meta, writer_sweep[: meta.size])
    got, want = write_ascii_grid(raster), write_ascii_grid_per_cell(raster)
    if got != want:  # show where, not a diff of megabytes
        at = len(os.path.commonprefix([got, want]))
        pytest.fail(f"text differs at char {at}: {got[at - 30:at + 30]!r} != {want[at - 30:at + 30]!r}")


def test_writer_peak_memory_within_three_times_its_text():
    # the body is formatted a fixed number of cells at a time, so the
    # writer holds little beyond the blocks' text and the joined result
    rng = np.random.default_rng(3)
    meta = GridMeta(ncols=512, nrows=512, xllcorner=0.0, yllcorner=0.0, cellsize=1.0)
    raster = Raster(meta, rng.random(meta.size))
    tracemalloc.start()
    try:
        text = write_ascii_grid(raster)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text)


def test_parse_peak_memory_within_twice_its_text():
    # the body is read a fixed number of cells at a time, not as one list of str
    rng = np.random.default_rng(4)
    meta = GridMeta(ncols=512, nrows=512, xllcorner=0.0, yllcorner=0.0, cellsize=1.0)
    text = write_ascii_grid(Raster(meta, rng.random(meta.size)))
    tracemalloc.start()
    try:
        parse_ascii_grid(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * len(text)


def _assert_parse_matches_oracle(tokens: list[str], ncols: int = 1000, sep: str = " "):
    """The cells parsed from a grid of these tokens, bit for bit those of
    the scalar parse."""
    ncols = min(ncols, len(tokens))
    assert len(tokens) % ncols == 0
    rows = [sep.join(tokens[i:i + ncols]) for i in range(0, len(tokens), ncols)]
    body = "\n".join(rows)
    header = f"ncols {ncols}\nnrows {len(rows)}\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
    got = parse_ascii_grid(header + body).values
    want = parse_body_scalar(body)
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert not bad.size, [(tokens[i], got[i], want[i]) for i in bad[:5]]


def _random_doubles(rng, n: int) -> np.ndarray:
    """Finite doubles of both signs: half from random bit patterns, so every
    binade, subnormals included; half log-uniform over [1e-6, 1e17], the
    decades where the kernel reads a cell itself."""
    bits = rng.integers(0, 2**63, n // 2, dtype=np.int64).view(np.float64)
    spread = 10.0 ** rng.uniform(-6, 17, n - n // 2)
    v = np.concatenate([bits[np.isfinite(bits)], spread])
    return v * rng.choice([-1.0, 1.0], v.size)


@pytest.mark.parametrize("fmt", ["%.17g", "%r", "%.15g", "%.6g"])
def test_parse_matches_scalar_oracle_on_random_doubles(fmt):
    values = _random_doubles(np.random.default_rng(25), 100_000)
    tokens = [fmt % v for v in values.tolist()]
    _assert_parse_matches_oracle(tokens[: len(tokens) // 1000 * 1000])


EDGE_TOKENS = [
    "0", "-0", "+1", ".5", "5.", "-.5", "007", "-007.0", "0.000", "1e5", "1E-05", "-9999",
    "9007199254740992", "9007199254740993", "5e-324", "1.7976931348623157e308",
    "0.10000000000000001", "0.10000000000000000", "0.99999999999999999", "99999999999999.999",
    "0.00010000000000000000", "0.000099999999999999999", "1.0000000000000000", "1000000000000000.0",
    "0.0000000000000000000001", "-0.000000000000000000001", "000000000000000000000001",
    "123456789012345678", "1.23456789012345678", "0.1234567890123456789",
    "12345678901234567890.12", "1234567890123456789012345", "0." + "3" * 22, "-" + "9" * 23,
]


def test_parse_matches_scalar_oracle_on_edge_tokens():
    _assert_parse_matches_oracle(EDGE_TOKENS, ncols=len(EDGE_TOKENS))


def test_parse_matches_scalar_oracle_on_seventeen_digit_decimals():
    # most 17-digit decimals are no double's "%.17g": the kernel must hand
    # those on to float() rather than accept a neighbour
    rng = np.random.default_rng(26)
    digits = rng.integers(10**16, 10**17, 20_000).tolist()
    points = rng.integers(-4, 16, len(digits)).tolist()
    tokens = [
        f"0.{'0' * -(e + 1)}{d}" if e < 0 else f"{str(d)[:e + 1]}.{str(d)[e + 1:]}"
        for d, e in zip(digits, points)
    ]
    _assert_parse_matches_oracle(tokens)


@pytest.mark.parametrize("sep", ["\t", "  ", "\r", "\x0b\x0c", "\x1c\x1d\x1e\x1f"])
def test_parse_splits_where_str_split_does(sep):
    values = _random_doubles(np.random.default_rng(27), 5000)
    _assert_parse_matches_oracle([f"{v:.17g}" for v in values.tolist()][:4000], ncols=100, sep=sep)


@pytest.mark.parametrize(
    "token", ["1.2.3", "--1", "1-2", "-", ".", "-.", "1e", "0x10", "1\x002", "\x0e5", "5\x1b"]
)
def test_parse_rejects_near_plain_tokens_as_float_does(token):
    # two points, a misplaced sign and a control byte (which no str.split()
    # splits at) are all float() errors, not cells the kernel reads
    with pytest.raises(DataError, match=re.escape(f"g.asc: cell value {token!r} is not a number")):
        parse_ascii_grid(HEADER_2X1 + f"0.5 {token}", "g.asc")


def test_parse_reads_a_token_longer_than_a_block():
    _assert_parse_matches_oracle(["0.25", "0." + "7" * (_READ_CELLS * grid._TOKEN_BYTES * 3), "-1"])


@pytest.mark.parametrize(
    "nrows, ncols",
    [(1, 1), (1, _BLOCK_CELLS - 1), (1, _BLOCK_CELLS), (1, _BLOCK_CELLS + 1), (1, 3 * _BLOCK_CELLS + 1),
     (3 * _BLOCK_CELLS + 1, 1), (1, _READ_CELLS - 1), (1, _READ_CELLS), (1, 2 * _READ_CELLS + 1)],
)
def test_parse_matches_scalar_oracle_across_blocks(nrows, ncols):
    rng = np.random.default_rng(nrows + ncols)
    meta = GridMeta(ncols=ncols, nrows=nrows, xllcorner=0.0, yllcorner=0.0, cellsize=1.0)
    values = rng.random(meta.size) * 10.0 ** rng.integers(-5, 16, meta.size)
    values[rng.random(meta.size) < 0.1] = meta.nodata_value
    text = write_ascii_grid(Raster(meta, values))
    body = text.split("\n", 6)[6]
    got = parse_ascii_grid(text).values
    assert np.array_equal(got.view(np.int64), parse_body_scalar(body).view(np.int64))
    assert np.array_equal(got.view(np.int64), values.view(np.int64))


def test_writer_cells_in_the_plain_range_need_no_float(monkeypatch):
    # every cell the writer emits in fixed notation is read by the kernel:
    # float() reads the six header values and nothing else
    rng = np.random.default_rng(28)
    meta = GridMeta(ncols=1000, nrows=100, xllcorner=0.0, yllcorner=0.0, cellsize=1.0)
    values = 10.0 ** rng.uniform(-4, 15, meta.size) * rng.choice([-1.0, 1.0], meta.size)
    values[:6] = [1e-4, np.nextafter(1e15, 0), -1e-4, 0.0, -0.0, meta.nodata_value]
    read = []
    monkeypatch.setattr(grid, "float", lambda token: read.append(token) or float(token), raising=False)
    again = parse_ascii_grid(write_ascii_grid(Raster(meta, values)))
    assert np.array_equal(again.values.view(np.int64), values.view(np.int64))
    assert read == ["1000", "100", "0", "0", "1", "-9999"]


@pytest.mark.parametrize("early, late, named", [
    ("abc", "1_0", "'1_0'"),  # a "_" anywhere outranks a token float() rejects
    ("inf", "abc", "'abc'"),  # which outranks a non-finite cell
    ("1e999", "nan", "cell 5 is not finite: '1e999'"),
])
def test_parse_error_precedence_spans_blocks(early, late, named):
    cells = ["0.5"] * (3 * _READ_CELLS)
    cells[5], cells[-5] = early, late
    text = f"ncols {len(cells)}\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n" + " ".join(cells)
    with pytest.raises(DataError, match=re.escape(named)):
        parse_ascii_grid(text)
    with pytest.raises(DataError, match=f"^expected {len(cells) + 1} cells, got {len(cells)}$"):
        parse_ascii_grid(text.replace(f"ncols {len(cells)}", f"ncols {len(cells) + 1}"))


def test_writer_awkward_literals():
    meta = GridMeta(ncols=len(AWKWARD_VALUES), nrows=1, xllcorner=0.0, yllcorner=0.0, cellsize=1.0)
    body = write_ascii_grid(Raster(meta, np.array(AWKWARD_VALUES))).splitlines()[6]
    assert body == (
        "-0 4.9406564584124654e-324 2.2250738585072014e-308 "
        "1.0000000000000001e+300 0.10000000000000001 1 -9999"
    )


def test_writer_matches_oracle_on_acceptance_grids(synth_stack, pipeline_run):
    # every grid the acceptance fixture writes: criteria, mask and cluster maps
    manifest, _ = synth_stack
    out, _, _ = pipeline_run
    paths = sorted(manifest.parent.glob("*.asc")) + sorted(out.glob("*.asc"))
    assert len(paths) == 10 + 1 + 2 * 4
    for path in paths:
        raster = parse_ascii_grid(path.read_text())
        text = write_ascii_grid(raster)
        assert text == write_ascii_grid_per_cell(raster), path.name
        assert text == path.read_text(), path.name


def test_nodata_serialized_as_declared_literal(meta_2x1):
    text = write_ascii_grid(Raster(meta_2x1, np.array([0.5, -9999.0])))
    assert "-9999" in text.split("\n")[6]


def test_header_order_fixed(meta_2x1):
    lines = write_ascii_grid(Raster(meta_2x1, np.array([0.0, 1.0]))).splitlines()
    keys = [line.split()[0] for line in lines[:6]]
    assert keys == ["ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "NODATA_value"]


def test_meta_alignment_tolerance():
    a = GridMeta(2, 2, 100.0, 200.0, 5.0)
    b = GridMeta(2, 2, 100.0 * (1 + 1e-12), 200.0, 5.0, nodata_value=-1.0)
    c = GridMeta(2, 2, 100.1, 200.0, 5.0)
    assert a.aligned_with(b)
    assert not a.aligned_with(c)
    assert not a.aligned_with(GridMeta(3, 2, 100.0, 200.0, 5.0))


def test_meta_validation():
    with pytest.raises(DataError, match="^grid must be at least 1x1, got 0x2$"):
        GridMeta(0, 2, 0.0, 0.0, 5.0)
    with pytest.raises(DataError, match="^cellsize must be positive, got -5.0$"):
        GridMeta(2, 2, 0.0, 0.0, -5.0)


def test_raster_rejects_wrong_length(meta_2x1):
    with pytest.raises(DataError, match=re.escape("expected 2 cells (2x1), got 3")):
        Raster(meta_2x1, np.array([0.1, 0.2, 0.3]))


def test_raster_copies_its_values(meta_2x1):
    # a raster is immutable once built: a later write to the caller's
    # array must not reach it, and the caller's array stays writable
    a = np.zeros(2)
    r = Raster(meta_2x1, a)
    a[0] = 7.0
    assert r.values.tolist() == [0.0, 0.0]
    assert not r.values.flags.writeable


def test_criterion_weights_normalize():
    w = CriterionWeights(np.array([1.0, 1.0]))
    assert w.v.tolist() == [0.5, 0.5]
    with pytest.raises(DataError, match=r"^weight 1 is 0\.0; all weights must be > 0$"):
        CriterionWeights(np.array([1.0, 0.0]))


def test_criterion_weights_reject_non_finite():
    with pytest.raises(DataError) as err:
        CriterionWeights(np.array([np.inf, 1.0, np.nan, 2.0]))
    assert "weight 0 is inf, weight 2 is nan" in str(err.value)


def test_build_stack_normalizes(meta_2x1):
    a = Raster(meta_2x1, np.array([0.1, 0.9]))
    b = Raster(meta_2x1, np.array([0.2, 0.8]))
    stack = build_stack([("a", a), ("b", b)], [1.0, 1.0])
    assert stack.criterion_weights.v.tolist() == [0.5, 0.5]
    assert abs(stack.criterion_weights.v.sum() - 1.0) <= 1e-9


def test_build_stack_alignment_error(meta_2x1):
    other = GridMeta(ncols=2, nrows=1, xllcorner=0.0, yllcorner=0.0, cellsize=6.0)
    a = Raster(meta_2x1, np.array([0.1, 0.9]))
    b = Raster(other, np.array([0.2, 0.8]))
    with pytest.raises(DataError, match="^layer 'b' is not aligned with the stack frame$"):
        build_stack([("a", a), ("b", b)], [1.0, 1.0])


def test_build_stack_mask_intersection(meta_2x1):
    a = Raster(meta_2x1, np.array([0.1, -9999.0]))
    b = Raster(meta_2x1, np.array([0.2, 0.8]))
    stack = build_stack([("a", a), ("b", b)], [1.0, 1.0])
    assert stack.valid_mask.tolist() == [True, False]


def test_build_stack_needs_a_cell_valid_in_every_layer(meta_2x1):
    a = Raster(meta_2x1, np.array([0.1, -9999.0]))
    b = Raster(meta_2x1, np.array([-9999.0, 0.8]))
    with pytest.raises(DataError, match="^no cell is valid in every layer; valid cells per layer: 'a' 1, 'b' 1$"):
        build_stack([("a", a), ("b", b)], [1.0, 1.0])


def test_build_stack_value_range(meta_2x1):
    bad = Raster(meta_2x1, np.array([0.1, 1.5]))
    ok = Raster(meta_2x1, np.array([0.2, 0.8]))
    with pytest.raises(DataError, match=re.escape("layer 'bad' has valid values in [0, 1.5], outside [0, 1]")):
        build_stack([("bad", bad), ("ok", ok)], [1.0, 1.0])


def test_build_stack_names_every_bad_layer(meta_2x1):
    # two layers off the frame and two valued 1.5: one error naming all
    # four in stack order
    other = GridMeta(ncols=2, nrows=1, xllcorner=0.0, yllcorner=0.0, cellsize=6.0)
    ok, off, high = (Raster(meta, np.array([0.2, v])) for meta, v in [(meta_2x1, 0.8), (other, 0.8), (meta_2x1, 1.5)])
    with pytest.raises(DataError) as err:
        build_stack([("a", ok), ("b", off), ("c", high), ("d", off), ("e", high)], [1.0] * 5)
    assert str(err.value) == (
        "layer 'b' is not aligned with the stack frame; layer 'c' has valid values in [0, 1.5], outside [0, 1]; "
        "layer 'd' is not aligned with the stack frame; layer 'e' has valid values in [0, 1.5], outside [0, 1]"
    )


def test_build_stack_clamps_float_dust(meta_2x1):
    dusty = Raster(meta_2x1, np.array([1.0 + 1e-10, -1e-10]))
    ok = Raster(meta_2x1, np.array([0.2, 0.8]))
    stack = build_stack([("dusty", dusty), ("ok", ok)], [1.0, 1.0])
    assert stack.layers[0].values.tolist() == [1.0, 0.0]
    assert stack.clamped_cells == 2
    assert build_stack([("ok", ok), ("again", ok)], [1.0, 1.0]).clamped_cells == 0


def test_build_stack_needs_two_layers(meta_2x1):
    a = Raster(meta_2x1, np.array([0.1, 0.9]))
    with pytest.raises(DataError, match="^a stack needs at least 2 layers, got 1$"):
        build_stack([("a", a)], [1.0])


def test_valid_count_bounded_by_layers():
    rng = np.random.default_rng(3)
    meta = GridMeta(ncols=8, nrows=8, xllcorner=0.0, yllcorner=0.0, cellsize=1.0)
    layers = []
    counts = []
    for j in range(3):
        values = rng.random(meta.size)
        holes = rng.choice(meta.size, size=5, replace=False)
        values[holes] = meta.nodata_value
        layers.append((f"c{j}", Raster(meta, values)))
        counts.append(int((values != meta.nodata_value).sum()))
    stack = build_stack(layers, [1.0, 2.0, 3.0])
    assert int(stack.valid_mask.sum()) <= min(counts)
    # conjunction semantics
    expected = np.ones(meta.size, dtype=bool)
    for _, layer in layers:
        expected &= layer.valid_mask
    assert np.array_equal(stack.valid_mask, expected)
