import json
from functools import lru_cache

import numpy as np
import plain_ops
import pytest
from hypothesis import given, settings, strategies as st

from blockmdm import nd
from blockmdm.errors import InputError, ParameterError
from blockmdm.synthtask import (CORPUS_MAGIC, TaskSpec, gen_dataset, gen_grammar, read_corpus,
                                strip_eos, token_error_rate, write_corpus)

SPEC = TaskSpec(source_vocab=16, data_tokens=32, upsample=4, grammar_seed=5)
EOS = 99


class TestGrammar:
    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(gen_grammar(SPEC), gen_grammar(SPEC))
        other = TaskSpec(source_vocab=16, data_tokens=32, upsample=4, grammar_seed=6)
        assert not np.array_equal(gen_grammar(SPEC), gen_grammar(other))

    def test_fragment_length_is_upsample(self):
        assert gen_grammar(SPEC).shape == (16, 4)

    def test_rows_injective(self):
        table = gen_grammar(TaskSpec(source_vocab=200, data_tokens=16, upsample=3))
        assert np.unique(table, axis=0).shape[0] == 200

    def test_tokens_in_data_range(self):
        table = gen_grammar(SPEC)
        assert table.min() >= 0 and table.max() < 32


class TestGenDataset:
    def test_reproducible(self):
        a = gen_dataset(SPEC, 50, (2, 6), nd.make_rng(0), eos_id=EOS)
        b = gen_dataset(SPEC, 50, (2, 6), nd.make_rng(0), eos_id=EOS)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.source, pb.source)
            np.testing.assert_array_equal(pa.target, pb.target)

    def test_every_target_ends_in_eos(self):
        for p in gen_dataset(SPEC, 30, (2, 6), nd.make_rng(1), eos_id=EOS):
            assert p.target[-1] == EOS
            assert len(p.target) == 4 * len(p.source) + 1

    def test_clean_targets_follow_grammar(self):
        table = gen_grammar(SPEC)
        for p in gen_dataset(SPEC, 20, (2, 6), nd.make_rng(2), eos_id=EOS):
            np.testing.assert_array_equal(p.target[:-1], table[p.source].reshape(-1))

    def test_noise_rate_monte_carlo(self):
        noisy_spec = TaskSpec(source_vocab=16, data_tokens=32, upsample=4,
                              grammar_seed=5, noise_rho=0.15)
        table = gen_grammar(noisy_spec)
        pairs = gen_dataset(noisy_spec, 10_000, (2, 6), nd.make_rng(3), eos_id=EOS)
        rates = [token_error_rate(p.target[:-1], table[p.source].reshape(-1)).rate for p in pairs]
        assert abs(float(np.mean(rates)) - 0.15) < 0.02

    def test_count_validation(self):
        with pytest.raises(ParameterError):
            gen_dataset(SPEC, 0, (2, 6), nd.make_rng(0), eos_id=EOS)
        with pytest.raises(ParameterError):
            gen_dataset(SPEC, 5, (6, 2), nd.make_rng(0), eos_id=EOS)


class TestTaskSpecValidation:
    def test_noise_range(self):
        with pytest.raises(ParameterError):
            TaskSpec(noise_rho=0.5)

    def test_upsample_floor(self):
        with pytest.raises(ParameterError):
            TaskSpec(upsample=0)


def oracle_edit_distance(a, b):
    """Plain recursive Levenshtein (memoized) as an independent oracle."""
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        if a[i] == b[j]:
            return rec(i + 1, j + 1)
        return 1 + min(rec(i + 1, j), rec(i, j + 1), rec(i + 1, j + 1))

    return rec(0, 0)


class TestTokenErrorRate:
    def test_identical_zero(self):
        r = token_error_rate([1, 2, 3], [1, 2, 3])
        assert r.rate == 0.0 and r.edits == 0

    def test_single_substitution_length_10(self):
        ref = list(range(10))
        hyp = list(range(10))
        hyp[4] = 77
        assert token_error_rate(hyp, ref).rate == pytest.approx(0.1)

    def test_three_token_case_vs_oracle(self):
        assert token_error_rate([1, 9, 3], [1, 2, 3]).edits == oracle_edit_distance([1, 9, 3], [1, 2, 3]) == 1

    def test_random_cases_vs_oracle(self):
        rng = nd.make_rng(4)
        for _ in range(50):
            a = rng.integers(0, 5, int(rng.integers(0, 9))).tolist()
            b = rng.integers(0, 5, int(rng.integers(1, 9))).tolist()
            assert token_error_rate(a, b).edits == oracle_edit_distance(a, b)

    def test_can_exceed_one(self):
        r = token_error_rate(list(range(30)), [0, 1])
        assert r.rate > 1.0 and r.edits == 28

    def test_empty_ref_flagged(self):
        r = token_error_rate([1, 2], [])
        assert r.flagged and r.rate == 2.0
        ok = token_error_rate([], [])
        assert not ok.flagged and ok.rate == 0.0

    def test_insertion_deletion(self):
        assert token_error_rate([1, 2, 3], [1, 3]).edits == 1
        assert token_error_rate([1, 3], [1, 2, 3]).edits == 1

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 150), st.integers(1, 70), st.integers(-1, 5), st.integers(0, 2**32 - 1))
    def test_bit_parallel_count_is_the_table(self, n, vocab, n_edits, seed):
        # references past 64 tokens span several machine words; the
        # hypothesis is random (n_edits -1) or a copy with up to 5 edits
        rng = nd.make_rng(seed)
        ref = rng.integers(0, vocab, n).tolist()
        if n_edits < 0:
            hyp = rng.integers(0, vocab, int(rng.integers(0, 151))).tolist()
        else:
            hyp = list(ref)
            for _ in range(n_edits):
                at, token = int(rng.integers(0, len(hyp) + 1)), int(rng.integers(0, vocab))
                kind = int(rng.integers(3)) if at < len(hyp) else 0
                if kind == 0:
                    hyp.insert(at, token)
                elif kind == 1:
                    del hyp[at]
                else:
                    hyp[at] = token
        assert token_error_rate(hyp, ref).edits == plain_ops.edit_distance(hyp, ref)


class TestStripEos:
    def test_cuts_at_first_eos(self):
        np.testing.assert_array_equal(strip_eos([5, EOS, 7, EOS], EOS), [5])

    def test_no_eos_returns_all(self):
        np.testing.assert_array_equal(strip_eos([5, 6], EOS), [5, 6])


class TestCorpusIO:
    def test_round_trip_lossless(self, tmp_path):
        pairs = gen_dataset(SPEC, 40, (1, 7), nd.make_rng(5), eos_id=EOS)
        path = tmp_path / "corpus.txt"
        write_corpus(path, SPEC, pairs)
        spec2, pairs2 = read_corpus(path)
        assert spec2 == SPEC
        assert len(pairs2) == len(pairs)
        for a, b in zip(pairs, pairs2):
            np.testing.assert_array_equal(a.source, b.source)
            np.testing.assert_array_equal(a.target, b.target)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3\n4 5 6\n\n")
        with pytest.raises(InputError, match="header"):
            read_corpus(path)

    @pytest.mark.parametrize("count", ['"1"', "true", "1.0", "-1"])
    def test_header_count_must_be_a_non_negative_int(self, tmp_path, count):
        pairs = gen_dataset(SPEC, 1, (2, 3), nd.make_rng(6), eos_id=EOS)
        path = tmp_path / "corpus.txt"
        write_corpus(path, SPEC, pairs)
        path.write_text(path.read_text().replace('"count": 1', f'"count": {count}', 1))
        with pytest.raises(InputError, match=r"line 1: malformed corpus header: "
                                             r"count must be a non-negative integer, got "):
            read_corpus(path)

    @staticmethod
    def _corpus_with_spec(path, edit):
        """A one-record corpus at ``path`` whose header spec is ``edit(spec)``."""
        write_corpus(path, SPEC, gen_dataset(SPEC, 1, (2, 3), nd.make_rng(6), eos_id=EOS))
        header, rest = path.read_text().split("\n", 1)
        meta = json.loads(header[len(CORPUS_MAGIC):])
        meta["spec"] = edit(meta["spec"])
        path.write_text(CORPUS_MAGIC + json.dumps(meta) + "\n" + rest)

    @pytest.mark.parametrize("field, value, why", [("upsample", 4.5, "'upsample' has the wrong type: 4.5"),
                                                   ("grammar_seed", True, "'grammar_seed' has the wrong type"),
                                                   ("source_vocab", "16", "'source_vocab' has the wrong type"),
                                                   ("data_tokens", -3, "data_tokens >= 2")],
                             ids=["upsample", "grammar_seed", "source_vocab", "data_tokens"])
    def test_header_spec_fields_checked(self, tmp_path, field, value, why):
        path = tmp_path / "corpus.txt"
        self._corpus_with_spec(path, lambda spec: {**spec, field: value})
        with pytest.raises(InputError) as e:
            read_corpus(path)
        assert str(e.value).startswith(f"{path}: line 1: malformed corpus header: ") and why in str(e.value)

    @pytest.mark.parametrize("spec", [[], {"vocab": 16}], ids=["list", "unknown-field"])
    def test_header_spec_must_be_an_object_of_taskspec_fields(self, tmp_path, spec):
        path = tmp_path / "corpus.txt"
        self._corpus_with_spec(path, lambda _: spec)
        with pytest.raises(InputError, match="line 1: malformed corpus header: spec must be an object of TaskSpec"):
            read_corpus(path)

    def test_header_spec_noise_rho_takes_an_int(self, tmp_path):
        path = tmp_path / "corpus.txt"
        self._corpus_with_spec(path, lambda spec: {**spec, "noise_rho": 0})
        assert read_corpus(path)[0] == SPEC

    def test_count_mismatch_rejected(self, tmp_path):
        pairs = gen_dataset(SPEC, 3, (2, 3), nd.make_rng(6), eos_id=EOS)
        path = tmp_path / "corpus.txt"
        write_corpus(path, SPEC, pairs)
        text = path.read_text().rstrip("\n")
        text = text[:text.rfind("\n", 0, text.rfind("\n"))]  # drop last record's target
        path.write_text(text + "\n")
        with pytest.raises(InputError):
            read_corpus(path)
