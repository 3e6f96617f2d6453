"""Frequency-class partition of the vocabulary."""
import numpy as np
import pytest

from wordburst.cli import EXIT_OK, main
from wordburst.ensembles import build_ensembles, select_dense, select_dilute
from wordburst.matrix import save_matrix

from conftest import build_matrix


def test_partition_by_exact_total():
    m = build_matrix({"a": {0: 1}, "b": {3: 1}, "c": {0: 1, 1: 1}}, horizon=5)
    index = build_ensembles(m)
    assert index[1].rows.tolist() == [m.words.index("a"), m.words.index("b")]
    assert index[1].n_k == 2
    assert index[2].rows.tolist() == [m.words.index("c")]
    assert 3 not in index


def test_all_distinct_counts_give_singletons():
    m = build_matrix({"a": {0: 1}, "b": {0: 2}, "c": {0: 3}}, horizon=1)
    index = build_ensembles(m)
    assert [index[k].n_k for k in index.ks()] == [1, 1, 1]


def test_single_use_words_form_the_k1_class():
    m = build_matrix({"once": {4: 1}, "twice": {0: 1, 1: 1}}, horizon=6)
    index = build_ensembles(m)
    assert index[1].rows.tolist() == [m.words.index("once")]


def test_partition_conserves_mass(tiny_matrix):
    index = build_ensembles(tiny_matrix)
    assert sum(k * index[k].n_k for k in index.ks()) == int(tiny_matrix.counts.sum())
    assert sum(index[k].n_k for k in index.ks()) == tiny_matrix.vocabulary_size


def test_rebuild_is_identical(tiny_matrix):
    a = build_ensembles(tiny_matrix)
    b = build_ensembles(tiny_matrix)
    assert a.ks() == b.ks()
    assert all(np.array_equal(a[k].rows, b[k].rows) for k in a.ks())


def test_select_dilute_threshold():
    m = build_matrix(
        {
            "low": {d: 1 for d in range(100)},
            "edge": {d: 1 for d in range(213)},
            "full": {d: 1 for d in range(214)},
            "heavy": {d: 3 for d in range(214)},  # k = 642
        },
        horizon=214,
    )
    index = build_ensembles(m)
    ks = [e.k for e in select_dilute(index)]
    assert ks == [100, 213]  # k = T excluded, k = T-1 included


def test_select_dilute_empty():
    m = build_matrix({"w": {0: 5}}, horizon=3)
    index = build_ensembles(m)
    assert select_dilute(index) == []


def test_select_dense_inclusive_range():
    m = build_matrix(
        {"a": {0: 1000}, "b": {0: 1500}, "c": {0: 2000}, "d": {0: 2001}},
        horizon=214,
    )
    index = build_ensembles(m)
    ks = [e.k for e in select_dense(index, 1000, 2000)]
    assert ks == [1000, 1500, 2000]
    assert [e.k for e in select_dense(index, 1500, 1500)] == [1500]
    assert select_dense(index, 300, 800) == []


def test_select_dense_rejects_inverted_range(tiny_matrix):
    index = build_ensembles(tiny_matrix)
    with pytest.raises(ValueError):
        select_dense(index, 10, 5)


def test_spectrum_csv(tmp_path, tiny_matrix):
    index = build_ensembles(tiny_matrix)
    save_matrix(tiny_matrix, tmp_path / "m.tsv")
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(tmp_path / "m.tsv"), "--mode", "dilute", "--output", str(out)]) == EXIT_OK
    lines = (out / "spectrum.csv").read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "k,n_k"
    assert len(lines) == 1 + len(index.ks())
