from random import Random

import pytest

from perhom import GF, QQ, embedding_certificate, orbit_hom, single, two_term, zeros, mat
from perhom import orbit
from perhom.linalg import FieldMismatch
from perhom.samples import random_bounded_complex

F3 = GF(3)
F5 = GF(5)


class TestOrbitHom:
    def test_scalars_single_overlap(self):
        k = single(QQ, 0)
        report = orbit_hom(k, k, 2)
        assert report.summands == ((0, 1),)
        assert report.total == 1
        assert report.periodic_side == 1
        assert report.matches

    def test_degree_offset_picks_one_shift(self):
        # k in degree 0 against k in degree 2: only the shift with n*i = 2
        # brings the windows together.
        x = single(QQ, 0)
        y = single(QQ, 2)
        report = orbit_hom(x, y, 2)
        assert report.summands == ((1, 1),)
        assert report.total == 1 and report.matches

    def test_two_sided_f5(self):
        c = two_term(F5, 0, zeros(F5, 1, 1))
        report = orbit_hom(c, c, 1)
        assert report.total == report.periodic_side
        assert report.total >= 2  # identity class and the degree-one class

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            orbit_hom(single(QQ, 0), single(F5, 0), 1)

    def test_finite_support(self):
        rng = Random(41)
        for _ in range(6):
            x = random_bounded_complex(rng, F5)
            y = random_bounded_complex(rng, F5)
            report = orbit_hom(x, y, 2)
            width = (x.hi - x.lo) + (y.hi - y.lo)
            assert len(report.summands) <= width + 2


class TestEmbeddingCertificate:
    def test_singleton_corpus(self):
        report = embedding_certificate([single(QQ, 0)], 1)
        assert len(report.pairs) == 1
        assert report.all_equal

    def test_two_complexes_four_pairs(self):
        corpus = [single(QQ, 0), two_term(QQ, 0, mat(QQ, [[1]]))]
        report = embedding_certificate(corpus, 2)
        assert len(report.pairs) == 4
        assert report.all_equal

    def test_random_f3_corpus(self):
        rng = Random(42)
        corpus = [random_bounded_complex(rng, F3, max_dim=3, max_width=4) for _ in range(5)]
        report = embedding_certificate(corpus, 3)
        assert len(report.pairs) == 25
        assert report.all_equal
        assert report.violations == ()

    def test_each_complex_folded_once(self, monkeypatch):
        # The certificate asks for the fold of each complex in every pair it
        # is in, and gets one fold per complex back; each pair agrees with
        # orbit_hom.
        rng = Random(43)
        corpus = [random_bounded_complex(rng, F3, max_dim=3, max_width=4) for _ in range(5)]
        folds = []
        real = orbit.compress
        monkeypatch.setattr(orbit, "compress", lambda *args: folds.append(real(*args)) or folds[-1])
        report = embedding_certificate(corpus, 2)
        assert len({id(fold) for fold in folds}) == 5
        monkeypatch.undo()
        for xi, yi, total, periodic in report.pairs:
            pair = orbit_hom(corpus[xi], corpus[yi], 2)
            assert (total, periodic) == (pair.total, pair.periodic_side)
