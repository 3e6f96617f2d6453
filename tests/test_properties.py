"""Property tests for the structural invariants."""
import html
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wordburst.ensembles import build_ensembles
from wordburst.ingest import Post, ScanDay, ScanLog, bin_daily, clean_missing_scans, tokenize
from wordburst.matrix import WordDayMatrix
from wordburst.rankstats import ModifiedPowerLawFit
from wordburst.waiting import (
    distribution_from_sample,
    risk_function,
    waiting_times,
    zeta,
)

# characters whose case round-trip is stable, so upper() cannot split
# or merge tokens (ess-zet and friends are excluded by construction)
_stable_char = st.characters(max_codepoint=0x24F).filter(
    lambda c: len(c.upper()) == 1 and c.upper().lower() == c.lower()
)
texts = st.text(alphabet=_stable_char, max_size=60)

words = st.text(alphabet="abcdefg", min_size=1, max_size=4)
taus_arrays = st.lists(st.integers(1, 80), min_size=2, max_size=60).map(np.array)


def matrices(min_words=0):
    def build(data, horizon):
        return WordDayMatrix.from_mapping(horizon, data)

    return st.integers(3, 30).flatmap(
        lambda horizon: st.builds(
            build,
            st.dictionaries(
                words,
                st.dictionaries(st.integers(0, horizon - 1), st.integers(1, 4), min_size=1, max_size=horizon),
                min_size=min_words,
                max_size=10,
            ),
            st.just(horizon),
        )
    )


@given(texts)
def test_tokenize_case_insensitive_and_deterministic(s):
    assert tokenize(s.upper()) == tokenize(s)
    assert tokenize(s) == tokenize(s)


@given(texts)
def test_tokens_are_lowercase_alnum(s):
    import unicodedata

    for tok in tokenize(s):
        assert tok
        assert tok == tok.lower()
        # lowercasing may introduce combining marks (e.g. dotted capital I),
        # so non-alnum characters are acceptable only as marks
        assert all(ch.isalnum() or unicodedata.category(ch).startswith("M") for ch in tok)


@given(st.lists(st.tuples(st.integers(0, 9), texts), max_size=12))
def test_binning_conserves_distinct_word_mass(raw):
    posts = [Post("f", day, text) for day, text in raw]
    m = bin_daily(posts, horizon=10)
    lhs = sum(m.total(w) for w in m.words)
    rhs = sum(len(set(tokenize(p.text))) for p in posts)
    assert lhs == rhs


# post texts mixing markup, entities, and the characters that make
# tokenizing subtle: dotted capital I, capital sigma, underscore, digits
_post_pieces = st.sampled_from([
    "cat", "Cat", " ", "\n\t", "\xa0", ",", "'", "_", "snake_case", "mp3", "42", "\u0663",
    "İstanbul", "İ", "ΟΔΟΣ", "Σ", "ΑΣ'Β", "ß", "naïve", "<b>", "</b>", "<!-- a <i> -->", "<br/>",
    "&amp;", "&quot;", "&nbsp;", "&#931;", "&#x130;", "&lt;b&gt;", "&Sigma;", "&",
])
post_texts = st.lists(st.one_of(_post_pieces, st.text(max_size=4)), max_size=25).map("".join)
# posts that are mostly ASCII after decoding, so that tokenize takes its byte
# table: every code point below 128 ('\x0b', '\x1c'-'\x1f', '\x7f' and '_'
# among them), and entities decoding to a space, a letter and, rarely, to
# 'Σ' or U+FFFD
_ascii_text = st.text(alphabet=st.characters(max_codepoint=127), max_size=6)
_entities = st.sampled_from(["&nbsp;", "&#65;"] * 8 + ["&#931;", "&#0;"])
ascii_post_texts = st.lists(st.one_of(_ascii_text, _ascii_text, _entities), max_size=12).map("".join)


def _reference_tokens(text):
    """Drop comments and tags, decode entities, lower each letter-or-digit run."""
    text = html.unescape(re.sub(r"<!--.*?-->|<[^>]*>", " ", text, flags=re.DOTALL))
    return [t.lower() for t in re.findall(r"[^\W_]+", text)]


def _reference_bin_daily(posts, horizon):
    """Per-word, per-day post counts through a dict of dicts."""
    counts = {}
    for post in posts:
        for word in set(_reference_tokens(post.text)):
            days = counts.setdefault(word, {})
            days[post.day_index] = days.get(post.day_index, 0) + 1
    return WordDayMatrix.from_mapping(horizon, counts)


def _binning_cases(texts):
    return st.integers(1, 12).flatmap(lambda horizon: st.tuples(
        st.just(horizon), st.lists(st.tuples(st.integers(0, horizon - 1), texts), max_size=15)))


@given(post_texts)
def test_tokenize_is_findall_over_strip_markup(text):
    assert tokenize(text) == _reference_tokens(text)


@given(ascii_post_texts)
def test_ascii_tokenize_is_findall_over_strip_markup(text):
    assert tokenize(text) == _reference_tokens(text)


@given(_binning_cases(post_texts))
def test_bin_daily_matches_dict_reference(case):
    horizon, raw = case
    posts = [Post("f", day, text) for day, text in raw]
    assert bin_daily(posts, horizon) == _reference_bin_daily(posts, horizon)


@given(_binning_cases(ascii_post_texts))
def test_ascii_bin_daily_matches_dict_reference(case):
    horizon, raw = case
    posts = [Post("f", day, text) for day, text in raw]
    assert bin_daily(posts, horizon) == _reference_bin_daily(posts, horizon)


@given(matrices(min_words=1))
def test_ensemble_partition_conserves_mass(m):
    index = build_ensembles(m)
    assert sum(k * index[k].n_k for k in index.ks()) == sum(m.total(w) for w in m.words)
    seen = [r for k in index.ks() for r in index[k].rows.tolist()]
    assert len(seen) == len(set(seen)) == m.vocabulary_size


def matrix_and_rows(m):
    """A matrix with a list of its rows, repeats and any order allowed."""
    rows = st.lists(st.integers(0, m.vocabulary_size - 1), max_size=12) if m.words else st.just([])
    return st.tuples(st.just(m), rows)


@given(matrices().flatmap(matrix_and_rows), words)
def test_row_addressed_views_match_each_words_series(case, other):
    m, rows = case
    series = [m.series(m.words[r]) for r in rows]
    n, taus = m.gaps(rows)
    per_word = [waiting_times(x, m.horizon) for x in series]
    assert n.tolist() == [t.size for t in per_word]
    assert taus.tolist() == [t for gaps in per_word for t in gaps.tolist()]
    block = m.dense_block(rows)
    assert block.shape == (len(rows), m.horizon)
    assert block.tolist() == [[x.get(d, 0) for d in range(m.horizon)] for x in series]
    assert [m.row(w) for w in m.words] == list(range(m.vocabulary_size))
    for absent in {other, "", "zz"} - set(m.words):
        with pytest.raises(KeyError):
            m.row(absent)


@given(matrices(), st.lists(st.booleans(), min_size=0, max_size=29))
def test_cleaning_idempotent(m, flags):
    flags = (flags + [True] * m.horizon)[: m.horizon]
    flags[0] = True  # a scanned first day can never be removed
    log = ScanLog([ScanDay(i, f) for i, f in enumerate(flags)])
    once, report = clean_missing_scans(m, log)
    assert report.retained_horizon == once.horizon
    again, report2 = clean_missing_scans(once, ScanLog.all_scanned(once.horizon))
    assert again == once
    assert report2.removed_days == []


@given(taus_arrays)
def test_distribution_normalization(taus):
    dist = distribution_from_sample(taus, horizon=int(taus.max()) + 1)
    assert abs(dist.f.sum() - 1.0) < 1e-12


@given(taus_arrays)
def test_risk_monotone_and_recovers_f(taus):
    dist = distribution_from_sample(taus, horizon=int(taus.max()) + 1)
    risk = risk_function(dist)
    assert abs(risk.values[0] - 1.0) < 1e-12
    assert np.all(np.diff(risk.values) <= 1e-15)
    assert risk.values[-1] >= 0
    recovered = -np.diff(np.concatenate([risk.values, [0.0]]))
    np.testing.assert_allclose(recovered, dist.f, atol=1e-14)


@given(taus_arrays)
def test_zeta_bounds(taus):
    z = zeta(taus).zeta
    assert z >= 1.0 - 1e-12
    if np.all(taus == taus[0]):
        assert z == 1.0
    else:
        assert z > 1.0 + 1e-12


@given(taus_arrays, st.integers(1, 200), st.integers(201, 400))
def test_rescaling_preserves_zeta(taus, k, horizon):
    scaled = taus.astype(float) * (k / horizon)
    assert np.isclose(zeta(scaled).zeta, zeta(taus).zeta, rtol=1e-9)


@given(matrices(min_words=1))
def test_waiting_times_counts(m):
    for w in m.words:
        n_days = len(m.series(w))
        assert waiting_times(m.series(w), m.horizon).size == max(n_days - 1, 0)


@given(
    st.floats(1e-6, 1e3), st.floats(1e-8, 1.0), st.floats(0.05, 3.0), st.floats(0.05, 3.0),
    st.floats(1.0, 1e6),
)
@settings(deadline=None)
def test_fitted_model_strictly_decreasing(a1, a2, g1, dg, A):
    fit = ModifiedPowerLawFit(A=A, a1=a1, a2=a2, gamma1=g1, gamma2=g1 + dg, residual=0.0)
    x = np.logspace(0, 5, 200)
    y = fit.predict(x)
    assert np.all(np.diff(y) < 0)
