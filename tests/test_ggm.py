"""Gaussian model domain logic: likelihood, divergence, sampling, scenarios."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from ggmlink import (
    GaussianModel,
    ObservationSet,
    ScenarioSpec,
    SupportPattern,
    SymmetricMatrix,
    cholesky,
    draw_samples,
    kl_divergence,
    perturb_model,
    random_model,
    relative_error,
    sample_covariance,
    support_of,
    write_matrix,
    write_support,
)
from ggmlink import ggm
from ggmlink.symmat import _chol_or_none, _log_det_of_factor, _packed_inverse, _tril_of
from conftest import make_instance, random_pd


def gaussian_logpdf(x, cov_arr):
    """Reference zero-mean Gaussian log-density (test oracle)."""
    m = cov_arr.shape[0]
    sign, logdet = np.linalg.slogdet(cov_arr)
    assert sign > 0
    quad = np.einsum("ij,jk,ik->i", x, np.linalg.inv(cov_arr), x)
    return -0.5 * (m * np.log(2 * np.pi) + logdet + quad)


class TestSampleCovariance:
    def test_single_sample_outer_product(self):
        obs = ObservationSet(samples=np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(sample_covariance(obs).to_array(),
                                   [[1.0, 2.0], [2.0, 4.0]])

    def test_two_axis_samples(self):
        obs = ObservationSet(samples=np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(sample_covariance(obs).to_array(),
                                   [[0.5, 0.0], [0.0, 0.5]])

    def test_repeated_sample(self):
        x = np.array([0.3, -1.2, 0.7])
        obs = ObservationSet(samples=np.tile(x, (50, 1)))
        np.testing.assert_allclose(sample_covariance(obs).to_array(),
                                   np.outer(x, x), atol=1e-14)

    def test_formed_once_per_observation_set(self, monkeypatch):
        # The product runs on the first call for a set; later calls return
        # the same immutable matrix, and another set forms its own.
        products = []
        tril_of = ggm._tril_of
        monkeypatch.setattr(ggm, "_tril_of", lambda arr: (
            products.append(arr.shape) or tril_of(arr)))
        rng = np.random.default_rng(5)
        obs = ObservationSet(samples=rng.standard_normal((40, 4)))
        first = sample_covariance(obs)
        assert all(sample_covariance(obs) is first for _ in range(3))
        assert products == [(4, 4)]
        other = ObservationSet(samples=obs.samples)
        assert sample_covariance(other) is not first
        assert products == [(4, 4)] * 2

    @pytest.mark.parametrize("n, dim", [(1, 3), (200, 7), (1600, 40)])
    def test_bitwise_equal_to_the_product(self, n, dim):
        x = np.random.default_rng(n).standard_normal((n, dim))
        obs = ObservationSet(samples=x)
        expected = _tril_of(x.T @ x / n).tobytes()
        assert sample_covariance(obs).packed().tobytes() == expected
        assert sample_covariance(obs).packed().tobytes() == expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ObservationSet(samples=np.zeros((0, 3)))

    def test_no_columns_rejected(self):
        with pytest.raises(ValueError, match=r"nonempty \(N, m\) array"):
            ObservationSet(samples=np.zeros((3, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        samples = np.ones((4, 3))
        samples[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite observations"):
            ObservationSet(samples=samples)


class TestKLDivergence:
    def test_zero_at_equality(self, rng):
        s = random_pd(4, rng)
        assert abs(kl_divergence(s, s)) < 1e-12

    def test_scalar_case(self):
        # one dimension, prior variance 1, target variance 2
        val = kl_divergence(SymmetricMatrix.diagonal([2.0]),
                            SymmetricMatrix.diagonal([1.0]))
        assert abs(val - 0.5 * (1.0 - np.log(2.0))) < 1e-12

    def test_monte_carlo_oracle(self):
        # D(T||S) = E_{x~N(0,T)}[log p_T(x) - log p_S(x)], 1e5 samples.
        rng = np.random.default_rng(7)
        cov_t = random_pd(4, rng)
        cov_s = random_pd(4, rng)
        x = draw_samples(cov_t, 100_000, seed=11).samples
        ratio = gaussian_logpdf(x, cov_t.to_array()) - gaussian_logpdf(x, cov_s.to_array())
        mc, se = float(np.mean(ratio)), float(np.std(ratio) / np.sqrt(len(ratio)))
        assert abs(kl_divergence(cov_t, cov_s) - mc) < 3 * se

    def test_nonnegative_and_identity(self, rng):
        for _ in range(100):
            t = random_pd(5, rng)
            s = random_pd(5, rng)
            assert kl_divergence(t, s) >= 0.0
        s = random_pd(5, rng)
        assert kl_divergence(s, s) < 1e-12

    def test_asymmetric_orientation(self, rng):
        t = random_pd(4, rng)
        s = random_pd(4, rng)
        assert abs(kl_divergence(t, s) - kl_divergence(s, t)) > 1e-6

    def test_errors(self, rng):
        with pytest.raises(ValueError):
            kl_divergence(random_pd(3, rng), random_pd(4, rng))
        with pytest.raises(ValueError):
            kl_divergence(SymmetricMatrix.from_array([[1.0, 2.0], [2.0, 1.0]]),
                          SymmetricMatrix.identity(2))


class TestDrawSamples:
    def test_deterministic(self, rng):
        cov = random_pd(3, rng)
        a = draw_samples(cov, 25, seed=5)
        b = draw_samples(cov, 25, seed=5)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_law_of_large_numbers(self):
        obs = draw_samples(SymmetricMatrix.identity(2), 100_000, seed=3)
        err = np.abs(sample_covariance(obs).to_array() - np.eye(2))
        assert err.max() < 0.02

    def test_single_sample_rank_one(self, rng):
        cov = random_pd(3, rng)
        obs = draw_samples(cov, 1, seed=9)
        x = obs.samples[0]
        np.testing.assert_allclose(sample_covariance(obs).to_array(),
                                   np.outer(x, x), atol=1e-14)

    def test_error_shrinks_with_sample_size(self, rng):
        cov = random_pd(3, rng)
        medians = []
        for n in (100, 1000, 10000):
            errs = []
            for seed in range(20):
                est = sample_covariance(draw_samples(cov, n, seed=seed)).to_array()
                errs.append(np.abs(est - cov.to_array()).max())
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]

    def test_non_pd_rejected(self):
        with pytest.raises(ValueError):
            draw_samples(SymmetricMatrix.zeros(2), 5, seed=1)

    @pytest.mark.parametrize("n", [0, True, 5.0, ggm.MAX_SAMPLE_ENTRIES // 4 + 1,
                                   10**15],
                             ids=["zero", "bool", "float", "above_bound", "huge"])
    def test_sample_count_is_bounded(self, n):
        # Rejected before the draw: at N 10**15 it would take 32 PB.
        with pytest.raises(ValueError, match="N must be an integer"):
            draw_samples(SymmetricMatrix.identity(4), n, seed=1)
        ggm._check_sample_count(ggm.MAX_SAMPLE_ENTRIES // 4, 4)
        ggm._check_sample_count(1600, 400)  # scale-fit's draw


class TestRandomModel:
    def test_precision_is_pd_and_support_exact(self):
        for seed in range(5):
            model = random_model(8, 0.3, seed)
            assert cholesky(model.precision) is not None
            assert support_of(model.precision, 0.0) == model.precision_support

    def test_zero_density_rounds_to_diagonal(self):
        model = random_model(6, 0.01, seed=2)
        assert model.precision_support == SupportPattern.diagonal(6)
        assert cholesky(model.precision) is not None

    def test_deterministic(self):
        a = random_model(10, 0.3, seed=4)
        b = random_model(10, 0.3, seed=4)
        np.testing.assert_array_equal(a.precision.to_array(), b.precision.to_array())

    def test_covariance_matches_precision(self):
        model = random_model(7, 0.4, seed=6)
        res = model.covariance.to_array() @ model.precision.to_array() - np.eye(7)
        assert np.linalg.norm(res) < 1e-10

    def test_factors_only_the_model_it_returns(self, monkeypatch):
        # The empty graph is edited as a packed triangle, not built as a
        # model of its own: one Cholesky per call.
        calls = []
        factor_or_raise = ggm._factor_or_raise
        monkeypatch.setattr(ggm, "_factor_or_raise", lambda *args: (
            calls.append(args[0].dim) or factor_or_raise(*args)))
        random_model(12, 0.3, seed=8)
        assert calls == [12]


class TestPerturbModel:
    def test_no_change_keeps_support(self):
        base = random_model(8, 0.3, seed=1)
        spec = ScenarioSpec(dim=8, edge_density=0.3, n_add=0, n_remove=0, seed=2)
        assert perturb_model(base, spec).precision_support == base.precision_support

    def test_adds_edges(self):
        base = random_model(10, 0.25, seed=3)
        spec = ScenarioSpec(dim=10, edge_density=0.25, n_add=3, n_remove=0, seed=4)
        target = perturb_model(base, spec)
        added = target.precision_support.minus(base.precision_support)
        assert len(added.off_diagonal()) == 3
        assert base.precision_support.issubset(target.precision_support)

    def test_removes_edges(self):
        base = random_model(10, 0.25, seed=5)
        spec = ScenarioSpec(dim=10, edge_density=0.25, n_add=0, n_remove=2, seed=6)
        target = perturb_model(base, spec)
        removed = base.precision_support.minus(target.precision_support)
        assert len(removed.off_diagonal()) == 2
        assert target.precision_support.issubset(base.precision_support)

    def test_always_pd_with_exact_support(self):
        for seed in range(10):
            base = random_model(9, 0.3, seed=seed)
            spec = ScenarioSpec(dim=9, edge_density=0.3, n_add=2, n_remove=2,
                                seed=seed + 100)
            target = perturb_model(base, spec)
            assert cholesky(target.precision) is not None
            assert support_of(target.precision, 0.0) == target.precision_support

    def test_counts_validated(self):
        base = random_model(4, 0.2, seed=7)
        n_edges = len(base.precision_support.off_diagonal())
        with pytest.raises(ValueError):
            perturb_model(base, ScenarioSpec(dim=4, edge_density=0.2, n_add=0,
                                             n_remove=n_edges + 1, seed=8))
        n_absent = 6 - n_edges
        with pytest.raises(ValueError):
            perturb_model(base, ScenarioSpec(dim=4, edge_density=0.2,
                                             n_add=n_absent + 1, n_remove=0, seed=9))


class TestGenerationPinned:
    """random_model and perturb_model draw, bit for bit, the precisions of
    the pair-list generator that the packed draw replaced, recorded as
    digests: the desk scenario shapes for seeds 0-19 and one dim-400 scale
    instance, with the seeds that generate_scenario derives. A change to the
    pool order, the order of the draws or the repair fails here, not in a
    benchmark reference or a byte-compared artifact. The models'
    covariances and 300 samples drawn from each truth are pinned the same
    way."""

    @pytest.mark.parametrize("dim, density, n_add, n_remove, seeds, digest", [
        (10, 0.25, 3, 0, range(20),
         "01b686cf473ee75792e54795eb0269e5d457d96d9234de828a00683a05275125"),
        (10, 0.10, 0, 3, range(20),
         "c6f721c765dbd9b9045ca0a52866dbf9504fff028cc70e56ae4be298a7904d3d"),
        (400, 3 / 400, 3, 3, [0],
         "45bb8a998b078971305298c9cdbf41003e0a522dd944b9cb74c3357617374121"),
    ], ids=["desk_plp", "desk_nlp", "scale"])
    def test_precisions_match_recorded_digest(self, dim, density, n_add,
                                              n_remove, seeds, digest):
        sha = hashlib.sha256()
        for seed in seeds:
            prior, truth, _ = make_instance(seed, dim=dim, density=density,
                                            n_add=n_add, n_remove=n_remove)
            for model in (prior, truth):
                sha.update(model.precision.packed().astype("<f8").tobytes())
        assert sha.hexdigest() == digest

    @pytest.mark.parametrize("dim, density, n_add, n_remove, seeds, covariances, samples", [
        (10, 0.25, 3, 0, range(20),
         "5d08564d35a320f68a48b97b9e741c944ce9c668ac5115b43102c5fffa0b35ab",
         "029dcbc62fe4985fce7dc2f22c1246ee0f587e309c76cab08c810c726fbe1bbf"),
        (10, 0.10, 0, 3, range(20),
         "3a43a6e603f1c5ca5629ece1c8292b67c9905c63b7d8fe75047a4a9a2ed463b8",
         "60c8af223dd5f40f9c08e1bc773fe59e9c3e4184c111af6ae304f968016618a5"),
        (400, 3 / 400, 3, 3, [0],
         "96fcf64947249081e3e12009e7d47a2124abcd5ed69b21db11613dc3e829aae4",
         "ac17c128fc93a68569fc1222a4d6f40d74f695f46a753bf9907df17f04b7fe20"),
    ], ids=["desk_plp", "desk_nlp", "scale"])
    def test_covariances_and_samples_match_recorded_digests(
            self, dim, density, n_add, n_remove, seeds, covariances, samples):
        cov_sha, sample_sha = hashlib.sha256(), hashlib.sha256()
        for seed in seeds:
            prior, truth, _ = make_instance(seed, dim=dim, density=density,
                                            n_add=n_add, n_remove=n_remove)
            for model in (prior, truth):
                cov_sha.update(model.covariance.packed().astype("<f8").tobytes())
            obs_seed = int(np.random.SeedSequence(seed).generate_state(3)[2])
            obs = draw_samples(truth.covariance, 300, obs_seed)
            sample_sha.update(obs.samples.astype("<f8").tobytes())
        assert cov_sha.hexdigest() == covariances
        assert sample_sha.hexdigest() == samples


class TestRelativeError:
    def test_zero_at_equality(self, rng):
        t = random_pd(4, rng)
        assert relative_error(t, t) == 0.0

    def test_zero_estimate(self, rng):
        t = random_pd(4, rng)
        assert abs(relative_error(t, SymmetricMatrix.zeros(4)) - 1.0) < 1e-15

    def test_scaled_identity(self):
        eye = SymmetricMatrix.identity(2)
        assert abs(relative_error(eye, 2.0 * eye) - 1.0) < 1e-15

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            relative_error(SymmetricMatrix.zeros(2), SymmetricMatrix.identity(2))


class TestScenarioSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(dim=1, edge_density=0.3, n_add=1, n_remove=0, seed=0)
        with pytest.raises(ValueError):
            ScenarioSpec(dim=5, edge_density=0.0, n_add=1, n_remove=0, seed=0)
        with pytest.raises(ValueError):
            ScenarioSpec(dim=5, edge_density=0.3, n_add=-1, n_remove=0, seed=0)

    @pytest.mark.parametrize("dim", [True, 10.0, "10", ggm.MAX_DIM + 1, 10**9],
                             ids=["bool", "float", "str", "above_bound", "huge"])
    def test_dim_is_a_bounded_integer(self, dim):
        with pytest.raises(ValueError, match="scenario dim must be an integer"):
            ScenarioSpec(dim=dim, edge_density=0.3, n_add=1, n_remove=0, seed=0)
        with pytest.raises(ValueError, match="scenario dim must be an integer"):
            random_model(dim, 0.3, seed=0)
        assert ScenarioSpec(dim=np.int64(ggm.MAX_DIM), edge_density=0.3, n_add=1,
                            n_remove=0, seed=0).dim == ggm.MAX_DIM

    def test_seed_is_non_negative(self):
        with pytest.raises(ValueError, match="scenario seed must be an integer >= 0: -1"):
            ScenarioSpec(dim=5, edge_density=0.3, n_add=1, n_remove=0, seed=-1)


class TestSerialization:
    def test_model_round_trip(self, tmp_path):
        model = random_model(6, 0.4, seed=11)
        ggm.save_model(model, tmp_path, "prior")
        loaded = ggm.load_model(tmp_path, "prior")
        np.testing.assert_array_equal(loaded.precision.to_array(),
                                      model.precision.to_array())
        np.testing.assert_array_equal(loaded.covariance.to_array(),
                                      model.covariance.to_array())
        assert loaded.precision_support == model.precision_support

    def test_precision_zeros_survive_round_trip(self, tmp_path):
        model = random_model(6, 0.2, seed=12)
        ggm.save_model(model, tmp_path, "m")
        loaded = ggm.load_model(tmp_path, "m")
        assert support_of(loaded.precision, 0.0) == model.precision_support

    def test_covariance_file_is_not_read(self, tmp_path):
        model = random_model(6, 0.3, seed=14)
        ggm.save_model(model, tmp_path, "m")
        (tmp_path / "m_covariance.txt").write_text("not a matrix\n")
        loaded = ggm.load_model(tmp_path, "m")
        np.testing.assert_array_equal(loaded.covariance.packed(),
                                      model.covariance.packed())

    def test_non_pd_precision_rejected(self, tmp_path):
        model = random_model(6, 0.3, seed=15)
        ggm.save_model(model, tmp_path, "prior")
        packed = model.precision.packed().copy()
        packed[0] = -1.0
        write_matrix(SymmetricMatrix(6, packed), tmp_path / "prior_precision.txt")
        with pytest.raises(ValueError, match="prior_precision.txt: prior precision"
                                             " is not positive definite"):
            ggm.load_model(tmp_path, "prior")

    @pytest.mark.parametrize("edit", ["drop", "add"])
    def test_support_file_must_match_precision(self, tmp_path, edit):
        model = random_model(6, 0.3, seed=16)
        ggm.save_model(model, tmp_path, "prior")
        edge = model.precision_support.off_diagonal()[0]
        other = model.precision_support.complement().off_diagonal()[0]
        pairs = set(model.precision_support.pairs())
        pairs = pairs - {edge} if edit == "drop" else pairs | {other}
        write_support(SupportPattern(6, pairs), tmp_path / "prior_support.txt")
        with pytest.raises(ValueError, match="prior_support.txt: support differs"):
            ggm.load_model(tmp_path, "prior")

    def test_observations_written_as_element_reprs(self, tmp_path, rng):
        # The per-element loop the writer replaced is the byte reference.
        obs = draw_samples(random_pd(5, rng), 40, seed=17)
        path = tmp_path / "obs.csv"
        ggm.save_observations(obs, path)
        want = "".join(",".join(repr(float(v)) for v in row) + "\n"
                       for row in obs.samples)
        assert path.read_text() == want

    def test_observations_written_block_by_block_as_row_reprs(self, tmp_path):
        # Rows of 7 entries over several write blocks, which 7 does not
        # divide, with values whose reprs take every float format.
        m = 7
        assert ggm._WRITE_BLOCK_ENTRIES % m
        x = np.random.default_rng(3).standard_normal(
            (3 * (ggm._WRITE_BLOCK_ENTRIES // m) + 5, m))
        x[0, :4] = [-0.0, 1e-05, 1e+16, 5e-324]
        x[-1, -4:] = [5e-324, 1e+16, 1e-05, -0.0]
        path = tmp_path / "obs.csv"
        ggm.save_observations(ObservationSet(samples=x), path)
        want = "".join(",".join(map(repr, row)) + "\n" for row in x.tolist())
        assert path.read_bytes() == want.encode()

    @staticmethod
    def _traced_peak(call):
        """Peak of traced allocations during ``call()`` above those before it."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    @pytest.fixture
    def table(self, tmp_path):
        """A 40,000 x 8 set (2.56 MB of float64) and its file."""
        obs = ObservationSet(samples=np.random.default_rng(9).standard_normal((40_000, 8)))
        path = tmp_path / "obs.csv"
        ggm.save_observations(obs, path)
        return obs, path

    def test_writing_observations_takes_under_two_tables_of_memory(self, table):
        # Writing holds one block of rows as Python floats at a time.
        obs, path = table
        assert self._traced_peak(lambda: ggm.save_observations(obs, path)) < 2 * obs.samples.nbytes

    def test_reading_observations_takes_under_two_tables_of_memory(self, table):
        # Reading holds the parsed table and a bounded read buffer.
        obs, path = table
        assert self._traced_peak(lambda: ggm.load_observations(path)) < 2 * obs.samples.nbytes

    def test_observations_round_trip(self, tmp_path, rng):
        cov = random_pd(4, rng)
        obs = draw_samples(cov, 17, seed=13)
        path = tmp_path / "obs.csv"
        ggm.save_observations(obs, path)
        loaded = ggm.load_observations(path)
        np.testing.assert_array_equal(loaded.samples, obs.samples)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_observation_rows_end_like_matrix_rows(self, tmp_path, end):
        path = tmp_path / "obs.csv"
        path.write_bytes(f"1.5,2{end}3,-4e-3{end}".encode())
        loaded = ggm.load_observations(path)
        np.testing.assert_array_equal(loaded.samples, [[1.5, 2.0], [3.0, -4e-3]])

    def test_form_feed_does_not_end_an_observation_row(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_bytes(b"1,2\x0c3,4\n")
        with pytest.raises(ValueError, match=r"obs.csv: could not convert string '2\\x0c3'"):
            ggm.load_observations(path)

    def test_bad_byte_is_placed_in_the_whole_file(self, tmp_path):
        # The rows span several decode chunks; the message counts the bad
        # byte's position from the start of the file, not of its chunk.
        path = tmp_path / "obs.csv"
        rows = b"1.25,-2.5\n" * 20_000
        path.write_bytes(rows + b"\xff\n")
        with pytest.raises(ValueError, match=(
                rf"obs.csv: 'utf-8' codec can't decode byte 0xff in position {len(rows)}:")):
            ggm.load_observations(path)

    def test_metadata_round_trip(self, tmp_path):
        meta = {"dim": 5, "seed": 3, "edge_density": 0.25, "label": "x"}
        path = tmp_path / "meta.json"
        ggm.save_metadata(meta, path)
        assert ggm.load_metadata(path) == meta

    def test_metadata_bytes_are_json_dump(self, tmp_path):
        # The report is written in one call; its bytes are json's compact
        # text with sorted keys and a final newline.
        meta = {"solve": {"iterations": 7, "converged": True, "gap": None,
                          "objective": [0.1, -2.5e-17, 1e300],
                          "bounds": [math.nan, math.inf, -math.inf]},
                "label": "\u00e9t\u00e9 x", "z": [], "a": {}, "t_r": 1e-4,
                "\u00e9cart": -0.0}
        path = tmp_path / "meta.json"
        ggm.save_metadata(meta, path)
        assert path.read_bytes() == (json.dumps(meta, sort_keys=True) + "\n").encode()


class TestGaussianModel:
    def test_from_precision_support_exact(self, rng):
        arr = np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 1.5]])
        model = GaussianModel(SymmetricMatrix.from_array(arr))
        assert model.precision_support == SupportPattern(3, [(1, 1), (2, 2), (3, 3), (2, 1)])
        res = model.covariance.to_array() @ arr - np.eye(3)
        assert np.linalg.norm(res) < 1e-12

    def test_rejects_non_pd(self):
        bad = SymmetricMatrix.from_array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError):
            GaussianModel(bad)

    def test_non_finite_precision_rejected(self):
        # A NaN off the support would leave the support as it was; the
        # Cholesky factor that derives the covariance still rejects it.
        model = random_model(5, 0.2, seed=18)
        outside = next(i for i, absent in enumerate(
            ~_tril_of(model.precision_support.mask())) if absent)
        packed = model.precision.packed().copy()
        packed[outside] = np.nan
        with pytest.raises(ValueError, match="not positive definite"):
            GaussianModel(SymmetricMatrix(5, packed))

    @pytest.mark.parametrize("dim", [5, 150])
    def test_log_det_and_covariance_match_a_fresh_factor(self, dim):
        # Both come from one factor, which the inverse overwrites: the log
        # det must be taken first.
        model = random_model(dim, 0.1, seed=dim)
        factor = _chol_or_none(dim, model.precision.packed())
        assert model.precision_log_det == _log_det_of_factor(factor)
        assert model.covariance.packed().tobytes() == _packed_inverse(factor).tobytes()

    def test_covariance_and_support_are_derived(self):
        eye = SymmetricMatrix.identity(2)
        with pytest.raises(TypeError):
            GaussianModel(precision=eye, covariance=eye,
                          precision_support=SupportPattern.diagonal(2))
