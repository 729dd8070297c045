import pytest
from hypothesis import example, given, strategies as st

from edusent.errors import ValidationError
from edusent.textprep import (
    LemmaRuleTable,
    StopwordList,
    lemmatize,
    preprocess,
    remove_stopwords,
    tokenize,
)


class TestTokenize:
    def test_sentence(self):
        assert tokenize("The lecture was engaging and informative.") == [
            "the", "lecture", "was", "engaging", "and", "informative",
        ]

    def test_empty(self):
        assert tokenize("") == []

    def test_short_tokens_and_punctuation(self):
        assert tokenize("A+ prof!!") == ["prof"]

    def test_interior_apostrophe_kept(self):
        assert tokenize("I don't care") == ["don't", "care"]

    def test_boundary_apostrophes_stripped(self):
        assert tokenize("the students' exams") == ["the", "students", "exams"]

    @given(st.text(max_size=200))
    def test_shape_and_length_bound(self, text):
        tokens = tokenize(text)
        assert len(tokens) <= max(len(text), 1)
        for t in tokens:
            assert len(t) >= 2
            assert t[0].isalpha()
            assert all(c.isalpha() and c.islower() or c == "'" for c in t)


class TestStopwords:
    def test_removal(self, stopwords):
        seq = ["the", "lecture", "was", "engaging", "and", "informative"]
        assert remove_stopwords(seq, stopwords) == ["lecture", "engaging", "informative"]

    def test_empty(self, stopwords):
        assert remove_stopwords([], stopwords) == []

    def test_identity_without_stopwords(self, stopwords):
        seq = ["lecture", "engaging", "informative"]
        assert remove_stopwords(seq, stopwords) == seq

    def test_negations_not_in_builtin_list(self, stopwords):
        for word in ("not", "no", "nor", "never", "but", "don't", "isn't"):
            assert word not in stopwords.words

    def test_idempotent(self, stopwords):
        seq = tokenize("the class was great and the exams were fair")
        once = remove_stopwords(seq, stopwords)
        assert remove_stopwords(once, stopwords) == once

    def test_custom_file(self, tmp_path):
        path = tmp_path / "sw.txt"
        path.write_text("# comment\nfoo\nbar\n", encoding="utf-8")
        sw = StopwordList.load(path)
        assert sw.words == {"foo", "bar"}
        assert sw.source == str(path)

    def test_empty_list_rejected(self, tmp_path):
        path = tmp_path / "sw.txt"
        path.write_text("\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            StopwordList.load(path)


class TestLemmatize:
    @pytest.mark.parametrize("token,lemma", [
        ("grading", "grade"),
        ("interesting", "interest"),
        ("exam", "exam"),
        ("engaging", "engage"),
        ("studies", "study"),
        ("classes", "class"),
        ("class", "class"),
        ("students", "student"),
        ("learning", "learn"),
        ("bored", "bore"),
        ("taught", "teach"),
        ("was", "be"),
        ("don't", "not"),
        ("isn't", "not"),
        ("won't", "not"),
    ])
    def test_cases(self, lemma_rules, token, lemma):
        assert lemmatize([token], lemma_rules) == [lemma]

    def test_length_preserved(self, lemma_rules):
        seq = ["grading", "exams", "is", "boring", "surely"]
        assert len(lemmatize(seq, lemma_rules)) == len(seq)

    def test_idempotent_on_sample_vocabulary(self, lemma_rules):
        words = ("taking classes was interesting studies engaging graded "
                 "informative don't exams professors teaching going said").split()
        once = lemmatize(words, lemma_rules)
        assert lemmatize(once, lemma_rules) == once

    @given(st.lists(st.from_regex(r"[a-z][a-z']{1,11}", fullmatch=True), max_size=30))
    @example(["aaased"])
    def test_idempotent_property(self, lemma_rules, tokens):
        once = lemmatize(tokens, lemma_rules)
        assert lemmatize(once, lemma_rules) == once

    def test_rules_reapplied_until_settled(self, lemma_rules):
        # "ed" gives "aaas", then the "s" rule gives "aaa"
        assert lemmatize(["aaased", "aaas", "aaa"], lemma_rules) == ["aaa"] * 3

    def test_cycle_settles_on_smallest_member(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("ab\tcd\ncd\tab\nxy\tcd\n", encoding="utf-8")
        rules = LemmaRuleTable.load(path)
        once = lemmatize(["ab", "cd", "xy"], rules)
        assert once == ["ab", "ab", "ab"]
        assert lemmatize(once, rules) == once

    def test_endless_rewriting_rejected(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("a\taa\t0\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="keep rewriting"):
            lemmatize(["ba"], LemmaRuleTable.load(path))

    def test_custom_rules_file(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("ran\trun\nly\t-\t3\n", encoding="utf-8")
        rules = LemmaRuleTable.load(path)
        assert lemmatize(["ran", "surely"], rules) == ["run", "sure"]

    def test_malformed_rule_file(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("a\tb\tc\td\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            LemmaRuleTable.load(path)

    def test_non_integer_min_stem(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("ing\t-\tlots\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            LemmaRuleTable.load(path)


class TestPipeline:
    def test_full_cleaning(self, stopwords, lemma_rules):
        tokens = preprocess("The lecture was engaging and informative.",
                            stopwords, lemma_rules)
        assert tokens == ["lecture", "engage", "informative"]

    def test_negation_survives(self, stopwords, lemma_rules):
        tokens = preprocess("The lecture wasn't engaging but informative.",
                            stopwords, lemma_rules)
        assert tokens == ["lecture", "not", "engage", "but", "informative"]

    def test_deterministic(self, stopwords, lemma_rules):
        text = "Professors are grading the exams, and students were bored!"
        assert preprocess(text, stopwords, lemma_rules) == preprocess(
            text, stopwords, lemma_rules)

    def test_no_stopwords_in_output(self, stopwords, lemma_rules):
        text = "Having the classes was there, doing it again and again."
        for token in preprocess(text, stopwords, lemma_rules):
            assert token not in stopwords.words
