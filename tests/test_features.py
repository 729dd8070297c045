import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    chi2_bruteforce,
    make_labels,
    reference_sequence_data,
    reference_tfidf_transform,
    reference_vocabulary_chi2,
    tfidf_of_tokens,
)
from edusent.errors import ValidationError
from edusent.features import (
    Chi2Scores,
    IdRows,
    Vocabulary,
    build_vocabulary,
    chi2_from_counts,
    chi2_scores,
    fit_tfidf,
    rank_terms,
    select_top_k,
    tfidf_transform,
)
from edusent.pipeline import Bundle, load_tfidf_model, save_tfidf_model, sequence_data


class TestVocabulary:
    def test_counting(self):
        v = build_vocabulary([["a", "b"], ["b", "c"]])
        assert set(v.terms) == {"a", "b", "c"}
        df = {t: int(v.doc_freq[v.term_to_index[t]]) for t in v.terms}
        assert df == {"a": 1, "b": 2, "c": 1}
        assert v.n_docs == 2

    def test_repeated_docs(self):
        v = build_vocabulary([["a"], ["a"], ["a"]])
        assert v.terms == ["a"]
        assert int(v.doc_freq[0]) == 3

    def test_first_appearance_order(self):
        v = build_vocabulary([["b", "a", "b"], ["c", "a"]])
        assert v.terms == ["b", "a", "c"]

    def test_empty_corpus_error(self):
        with pytest.raises(ValidationError, match="empty vocabulary"):
            build_vocabulary([[], []])

    def test_within_doc_repeats_count_once(self):
        v = build_vocabulary([["a", "a", "a"], ["a", "b"]])
        assert int(v.doc_freq[v.term_to_index["a"]]) == 2

    @given(st.lists(st.lists(st.sampled_from("abcdefgh"), max_size=8), min_size=1, max_size=12))
    def test_equals_two_pass_definition(self, corpus):
        terms = []
        for t in (t for doc in corpus for t in doc):
            if t not in terms:
                terms.append(t)
        if not terms:
            return
        v = build_vocabulary(corpus)
        assert v.terms == terms
        assert v.doc_freq.tolist() == [sum(t in doc for doc in corpus) for t in terms]
        assert v.term_to_index == {t: i for i, t in enumerate(terms)}
        bounds = v.corpus.indptr.tolist()
        assert [v.corpus.ids[a:b].tolist() for a, b in zip(bounds, bounds[1:])] == [
            [terms.index(t) for t in doc] for doc in corpus]


def tfidf_reference(model, doc) -> list:
    """One document's (index, weight) pairs, the per-row Python way: counts
    x idf in index order, divided by the square root of a left-to-right sum
    of squares."""
    t2i = model.vocab.term_to_index
    counts = Counter(t for t in doc if t in t2i)
    pairs = sorted((t2i[t], c * model.idf[t2i[t]]) for t, c in counts.items())
    norm = np.sqrt(sum(w * w for _, w in pairs))
    return [(i, w / norm) for i, w in pairs]


def row(X, i: int) -> dict:
    lo, hi = X.indptr[i], X.indptr[i + 1]
    return dict(zip(X.indices[lo:hi].tolist(), X.values[lo:hi].tolist()))


class TestTfidf:
    def test_everywhere_term_has_idf_one(self):
        v = build_vocabulary([["a"], ["a"], ["a"]])
        model = fit_tfidf(v)
        assert model.idf[0] == pytest.approx(1.0, abs=0)
        assert row(tfidf_of_tokens(model, [["a"]]), 0) == {0: 1.0}

    def test_two_document_hand_example(self):
        # corpus [[a, b], [b]]: idf(a) = ln(3/2) + 1, idf(b) = ln(3/3) + 1 = 1
        v = build_vocabulary([["a", "b"], ["b"]])
        model = fit_tfidf(v)
        ia, ib = v.term_to_index["a"], v.term_to_index["b"]
        assert model.idf[ia] == pytest.approx(1.4054651081081644, abs=1e-12)
        assert model.idf[ib] == pytest.approx(1.0, abs=0)
        vec = row(tfidf_of_tokens(model, [["a", "b"]]), 0)
        assert vec[ia] == pytest.approx(0.8148024746671689, abs=1e-12)
        assert vec[ib] == pytest.approx(0.5797386715376657, abs=1e-12)

    def test_oov_only_doc_is_zero_vector(self):
        v = build_vocabulary([["a", "b"], ["b"]])
        model = fit_tfidf(v)
        X = tfidf_of_tokens(model, [["zzz", "qqq"]])
        assert X.indptr.tolist() == [0, 0] and X.indices.size == 0

    def test_unit_norm_or_zero(self):
        rng = np.random.default_rng(0)
        corpus = [[f"w{j}" for j in rng.integers(0, 30, size=rng.integers(1, 15))]
                  for _ in range(40)]
        v = build_vocabulary(corpus)
        model = fit_tfidf(v)
        X = tfidf_of_tokens(model, corpus + [[]])
        for i in range(len(corpus)):
            norm = np.linalg.norm(list(row(X, i).values()))
            assert norm == pytest.approx(1.0, abs=1e-12)
        assert row(X, len(corpus)) == {}

    def test_counts_scale_weights(self):
        v = build_vocabulary([["a", "b"], ["b"]])
        model = fit_tfidf(v)
        X = tfidf_of_tokens(model, [["a", "b"], ["a", "a", "b", "b"]])
        single, doubled = row(X, 0), row(X, 1)
        for idx in single:
            assert doubled[idx] == pytest.approx(single[idx], abs=1e-12)

    def test_batch_matches_per_row_reference(self):
        rng = np.random.default_rng(3)
        corpus = [[f"w{j}" for j in rng.integers(0, 40, size=rng.integers(1, 25))]
                  for _ in range(60)]
        vocab = build_vocabulary(corpus)
        scores = chi2_scores(vocab, make_labels([i % 2 for i in range(60)]))
        # some corpus terms are OOV
        model = fit_tfidf(select_top_k(rank_terms(scores, vocab), vocab, 25))
        docs = corpus + [[], ["oov", "zzz"], ["oov"] + corpus[0]]
        docs = [docs[i] for i in rng.permutation(len(docs))]
        X = tfidf_of_tokens(model, docs)
        want_ptr, want_idx, want_val = [0], [], []
        for doc in docs:
            for i, w in tfidf_reference(model, doc):
                want_idx.append(i)
                want_val.append(w)
            want_ptr.append(len(want_idx))
        assert X.indptr.tolist() == want_ptr
        assert X.indices.dtype == np.int64 and X.indices.tolist() == want_idx
        assert X.values.tolist() == want_val  # bit for bit

    def test_no_documents(self):
        X = tfidf_of_tokens(fit_tfidf(build_vocabulary([["a"]])), [])
        assert X.indptr.tolist() == [0] and X.indices.size == 0 and X.values.size == 0

    def test_round_trip(self, tmp_path):
        v = build_vocabulary([["a", "b"], ["b", "c"], ["c"]])
        model = fit_tfidf(v)
        path = tmp_path / "vocab.json"
        save_tfidf_model(model, path)
        loaded = load_tfidf_model(path)
        assert loaded.vocab.terms == model.vocab.terms
        np.testing.assert_array_equal(loaded.vocab.doc_freq, model.vocab.doc_freq)
        np.testing.assert_array_equal(loaded.idf, model.idf)
        payload = json.loads(path.read_text())
        assert payload["version"] == 1 and payload["n_docs"] == 3


_TOKENS = st.sampled_from(["a", "b", "c", "d", "oov", "zzz"])


class TestIdPath:
    """The id path against the token path it replaced: TF-IDF rows and RNN
    sequences of id rows equal those of the token lists they map from."""

    @settings(max_examples=200, deadline=None)
    @given(docs=st.lists(st.lists(_TOKENS, max_size=12), max_size=8),
           max_len=st.integers(1, 6), drop_empty=st.booleans(), data=st.data())
    def test_matches_token_reference(self, docs, max_len, drop_empty, data):
        # always: an empty document, an OOV-only one, and one of repeats past max_len
        docs = docs + [[], ["oov", "zzz"], ["a", "oov", "b"] * 4]
        docs = data.draw(st.permutations(docs), label="docs")
        vocab = Vocabulary(terms=["c", "a", "d", "b"], doc_freq=np.array([1, 3, 2, 4]),
                           n_docs=5)
        model = fit_tfidf(vocab)
        rows = IdRows.from_tokens(docs, vocab.term_to_index)
        got, want = tfidf_transform(model, rows), reference_tfidf_transform(model, docs)
        for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                     (got.values, want.values)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()  # bit for bit

        labels = data.draw(st.lists(st.integers(0, 1), min_size=len(docs),
                                    max_size=len(docs)), label="labels")
        ids = data.draw(st.lists(st.integers(0, len(docs) - 1), unique=True), label="ids")
        bundle = Bundle(rows=rows, labels=np.array(labels, dtype="<i4"), tfidf=model,
                        vocab_ref="", train_ids=[], test_ids=[])
        ds, kept = sequence_data(bundle, ids, max_len, drop_empty)
        want_seqs, want_labels, want_kept = reference_sequence_data(
            docs, labels, vocab.term_to_index, ids, max_len, drop_empty)
        assert ds.sequences == want_seqs and kept == want_kept
        assert ds.labels.dtype == want_labels.dtype
        assert ds.labels.tolist() == want_labels.tolist()

    def test_take_and_remap(self):
        rows = IdRows.from_tokens([["a", "b"], [], ["b", "x", "b"]], {"a": 0, "b": 1})
        assert rows.indptr.tolist() == [0, 2, 2, 4] and rows.ids.tolist() == [0, 1, 1, 1]
        assert rows.take([2, 0, 2, 1]).sequences(9) == [[2, 2], [1, 2], [2, 2], []]
        assert rows.remap(np.array([-1, 5])).sequences(9) == [[6], [], [6, 6]]


class TestChi2:
    def test_independence_is_zero(self):
        assert chi2_from_counts(1, 1, 1, 1) == 0.0

    def test_perfect_association(self):
        assert chi2_from_counts(2, 0, 0, 2) == pytest.approx(4.0, abs=0)

    def test_zero_marginal_rule(self):
        # term present in every document: c = d = 0
        assert chi2_from_counts(3, 2, 0, 0) == 0.0

    def test_bruteforce_equivalence_random_tables(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a, b, c, d = (int(x) for x in rng.integers(0, 30, size=4))
            got = float(chi2_from_counts(a, b, c, d))
            want = chi2_bruteforce(a, b, c, d)
            assert math.isclose(got, want, rel_tol=0, abs_tol=1e-9)

    @given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40),
           st.integers(0, 40), st.integers(1, 7))
    def test_count_scaling_property(self, a, b, c, d, m):
        base = float(chi2_from_counts(a, b, c, d))
        scaled = float(chi2_from_counts(m * a, m * b, m * c, m * d))
        assert scaled == pytest.approx(m * base, rel=1e-12, abs=1e-12)

    def test_scores_from_presence(self):
        corpus = [["good"], ["good", "bad"], ["bad"], ["bad"]]
        labels = make_labels([1, 1, 0, 0])
        v = build_vocabulary(corpus)
        scores = chi2_scores(v, labels)
        # "good": a=2, b=0, c=0, d=2 -> perfect association, N=4
        assert scores.score[v.term_to_index["good"]] == pytest.approx(4.0)
        # "bad": a=1, b=2, c=1, d=0
        assert scores.score[v.term_to_index["bad"]] == pytest.approx(
            chi2_bruteforce(1, 2, 1, 0))

    @given(st.lists(st.tuples(st.lists(st.integers(0, 5), max_size=8), st.booleans()),
                    min_size=1, max_size=20))
    def test_counts_equal_a_per_document_loop(self, rows):
        corpus = [[f"t{i}" for i in doc] for doc, _ in rows]
        labels = make_labels([y for _, y in rows])
        if len(set(labels)) < 2 or not any(corpus):
            return
        v = build_vocabulary(corpus)
        a, b = np.zeros(len(v)), np.zeros(len(v))
        for doc, y in zip(corpus, labels):
            for t in set(doc):
                (a if y else b)[v.term_to_index[t]] += 1
        n_pos = sum(y for _, y in rows)
        want = chi2_from_counts(a, b, n_pos - a, len(rows) - n_pos - b)
        got = chi2_scores(v, labels).score
        assert got.tobytes() == want.tobytes()

    @given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "dd", "e'e", "f"]), max_size=9),
                    min_size=1, max_size=25),
           st.data())
    def test_equals_counter_of_document_sets(self, corpus, data):
        """Empty documents and repeated tokens included; the flat-id path
        gives the reference's term order, df and chi-squared bits."""
        labels = make_labels(data.draw(st.lists(st.booleans(), min_size=len(corpus),
                                                max_size=len(corpus))))
        if not any(corpus):
            with pytest.raises(ValidationError, match="empty vocabulary"):
                build_vocabulary(corpus)
            return
        v = build_vocabulary(corpus)
        terms, doc_freq, scores = reference_vocabulary_chi2(corpus, labels)
        assert v.terms == terms
        assert v.doc_freq.tolist() == doc_freq
        assert [v.term_to_index[t] for t in terms] == list(range(len(terms)))
        if len(set(labels)) < 2:
            with pytest.raises(ValidationError, match="one class"):
                chi2_scores(v, labels)
            return
        assert chi2_scores(v, labels).score.tobytes() == scores.tobytes()

    def test_needs_one_label_per_built_document(self):
        v = build_vocabulary([["a"], ["b"]])
        with pytest.raises(ValidationError, match="one label per document"):
            chi2_scores(v, make_labels([1, 0, 1]))
        selected = select_top_k(rank_terms(chi2_scores(v, make_labels([1, 0])), v), v, 1)
        with pytest.raises(ValidationError, match="built by build_vocabulary"):
            chi2_scores(selected, make_labels([1, 0]))

    def test_single_class_error(self):
        v = build_vocabulary([["a"], ["b"]])
        with pytest.raises(ValidationError, match="one class"):
            chi2_scores(v, make_labels([1, 1]))


class TestSelectTopK:
    def _vocab_scores(self):
        from edusent.features import Chi2Scores, Vocabulary

        v = Vocabulary(terms=["a", "b", "c"], doc_freq=np.array([2, 3, 1]), n_docs=4)
        s = Chi2Scores(score=np.array([4.0, 0.0, 2.0]))
        return v, s

    def test_keeps_highest(self):
        v, s = self._vocab_scores()
        out = select_top_k(rank_terms(s, v), v, 2)
        assert out.terms == ["a", "c"]
        assert out.term_to_index == {"a": 0, "c": 1}
        assert list(out.doc_freq) == [2, 1]

    def test_k_at_least_vocab_is_identity(self):
        v, s = self._vocab_scores()
        out = select_top_k(rank_terms(s, v), v, 10)
        assert set(out.terms) == set(v.terms)
        assert sorted(out.term_to_index.values()) == [0, 1, 2]

    def test_lexicographic_tie_break(self):
        from edusent.features import Chi2Scores, Vocabulary

        v = Vocabulary(terms=["y", "x"], doc_freq=np.array([1, 1]), n_docs=2)
        s = Chi2Scores(score=np.array([1.0, 1.0]))
        assert select_top_k(rank_terms(s, v), v, 1).terms == ["x"]

    def test_selection_is_superset_maximum(self):
        rng = np.random.default_rng(3)
        from edusent.features import Chi2Scores, Vocabulary

        terms = [f"t{i:02d}" for i in range(30)]
        v = Vocabulary(terms=terms, doc_freq=np.ones(30, dtype=np.int64), n_docs=5)
        s = Chi2Scores(score=rng.uniform(0, 10, size=30))
        out = select_top_k(rank_terms(s, v), v, 12)
        inside = min(s.score[terms.index(t)] for t in out.terms)
        outside = max(s.score[terms.index(t)] for t in terms if t not in out.term_to_index)
        assert inside >= outside

    @given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e-300]),
                              st.text(st.characters(blacklist_characters="\0"))),
                    max_size=30, unique_by=lambda pair: pair[1]))
    def test_rank_terms_sorts_on_score_then_term(self, pairs):
        terms = [t for _, t in pairs]
        score = np.array([x for x, _ in pairs])
        v = Vocabulary(terms=terms, doc_freq=np.ones(len(terms), np.int64), n_docs=1)
        want = sorted(range(len(terms)), key=lambda i: (-score[i], terms[i]))
        assert rank_terms(Chi2Scores(score), v).tolist() == want

    def test_rank_terms_ties_and_signed_zeros(self):
        terms = ["d", "b", "c", "a", "e"]
        v = Vocabulary(terms=terms, doc_freq=np.ones(5, np.int64), n_docs=1)
        score = Chi2Scores(np.array([0.0, 3.0, -0.0, 0.0, 3.0]))
        assert [terms[i] for i in rank_terms(score, v)] == ["b", "e", "a", "c", "d"]

    def test_bad_k(self):
        v, s = self._vocab_scores()
        with pytest.raises(ValidationError):
            select_top_k(rank_terms(s, v), v, 0)
