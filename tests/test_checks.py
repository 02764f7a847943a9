"""How the property suites group their cases into blocks (checks._blocks)."""

import re

import numpy as np
import pytest

from augburgers import checks

STEPPED = ("mass_conservation", "l1_contraction", "lp_monotone", "order_preservation")


def sized(rows):
    # Problems that are their own sizes: (rows, cells per row).
    return lambda problem: (rows, problem)


@pytest.mark.parametrize("rows", [1, 2])
def test_blocks_keep_order_and_budget(rows):
    rng = np.random.default_rng(rows)
    cells = rng.integers(1, 3000, 500).tolist()
    # Problems larger than the budget on their own, alone and in a row.
    cells[7] = cells[200] = cells[201] = checks._BLOCK_CELLS // rows + 1
    blocks = list(checks._blocks(cells, lambda case: case, sized(rows)))
    assert [p for block in blocks for p in block] == cells
    for block in blocks:
        if len(block) > 1:
            assert len(block) * rows * max(block) <= checks._BLOCK_CELLS
    # Each block but the last is full: one more problem would not fit.
    for block, after in zip(blocks, blocks[1:]):
        assert (len(block) + 1) * rows * max(block + after[:1]) > checks._BLOCK_CELLS


def test_many_cases_split_into_blocks():
    rng = np.random.default_rng(4)
    generate, _, default, ranges = checks.SUITES["l1_contraction"]
    cases = [generate(rng, ranges) for _ in range(5 * default)]
    blocks = list(checks._blocks(cases, checks._scaled_pair, checks._stepped_size))
    assert len(blocks) > 1
    for block in blocks:
        width = max(config.grid.num_cells for _, _, config in block)
        assert len(block) * 2 * width <= checks._BLOCK_CELLS


def counting_blocks(monkeypatch):
    """Patch checks._blocks to record the size of each block it yields."""
    sizes, blocks = [], checks._blocks

    def counted(*args):
        for block in blocks(*args):
            sizes.append(len(block))
            yield block

    monkeypatch.setattr(checks, "_blocks", counted)
    return sizes


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", STEPPED)
def test_default_counts_march_as_one_block(monkeypatch, name, seed):
    sizes = counting_blocks(monkeypatch)
    default = checks.SUITES[name][2]
    checks.run_suite(name, np.random.default_rng(seed), default)
    assert sizes == [default]


def numbers(detail):
    return [float(v) for v in re.findall(r"-?\d+\.\d+e[-+]\d+", detail)]


@pytest.mark.parametrize("name", STEPPED)
def test_verdicts_do_not_depend_on_blocks(monkeypatch, name):
    generate, check, _, ranges = checks.SUITES[name]
    rng = np.random.default_rng(7)
    cases = [generate(rng, ranges) for _ in range(6)]
    together = check(cases)
    sizes = counting_blocks(monkeypatch)
    monkeypatch.setattr(checks, "_BLOCK_CELLS", 1)
    alone = check(cases)
    assert sizes == [1] * len(cases)
    assert [ok for ok, _ in alone] == [ok for ok, _ in together]
    for (_, a), (_, b) in zip(alone, together):
        assert re.sub(r"-?\d+\.\d+e[-+]\d+", "#", a) == re.sub(r"-?\d+\.\d+e[-+]\d+", "#", b)
        assert np.allclose(numbers(a), numbers(b), rtol=0.0, atol=1e-12)
