"""Property tests: the rollout's selector, save/load identity, fuzzed model
documents, the Kronecker feature map, the compression round trip and the
solver's residual certificate."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import rrckit as rk
from rrckit.errors import RRCError
from rrckit.linalg import _column_norms
from rrckit.model import TrainingDiagnostics
from testutil import kron_power, matrix_with_spectrum, straddling_spectrum

finite = st.floats(allow_nan=False, allow_infinity=False)
nonnegative = st.floats(min_value=0.0, allow_infinity=False)
# st.floats draws the extremes (largest finite, subnormals) among others.
coefficient = finite.filter(lambda v: v != 0.0)


@st.composite
def models(draw):
    n, L, p = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    nL, rho = n * L, math.comb(n * L + p, p)
    entries = draw(st.dictionaries(
        st.tuples(st.integers(0, nL - 1), st.integers(0, rho - 1)), coefficient, max_size=12
    ))
    W_hat = np.zeros((nL, rho))
    for (i, j), value in entries.items():
        W_hat[i, j] = value
    ends = [sorted(draw(st.tuples(finite, finite))) for _ in range(n)]
    diagnostics = TrainingDiagnostics(
        rank=draw(st.integers(1, rho)),
        nnz=len(entries),
        residual_fro=draw(nonnegative),
        relative_residual=draw(nonnegative),
        column_residuals=draw(st.lists(nonnegative, min_size=nL, max_size=nL)),
        column_bounds=draw(st.lists(nonnegative, min_size=nL, max_size=nL)),
        train_min=[lo for lo, _ in ends],
        train_max=[hi for _, hi in ends],
        delta=draw(st.floats(min_value=5e-324, allow_infinity=False)),
        epsilon=draw(nonnegative),
        max_iter=draw(st.integers(1, 10**6)),
        seed=draw(st.integers(0, 2**64)),
    )
    return rk.RRCModel(n=n, L=L, p=p, W_hat=W_hat, diagnostics=diagnostics)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model=models())
def test_save_load_identity(model, workdir):
    path = workdir / "model.json"
    rk.save_model(model, path)
    loaded = rk.load_model(path)
    assert loaded == model
    assert loaded.W_hat.tobytes() == model.W_hat.tobytes()
    text = path.read_bytes()
    rk.save_model(loaded, path)
    assert path.read_bytes() == text


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 3), L=st.integers(1, 4), p=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_rollout_slides_to_the_dilated_output(n, L, p, seed):
    """Every slot the selector leaves out is an exact copy of the window's next
    slot, so iterating transform's dilated output reproduces forecast bit for bit."""
    rng = np.random.default_rng(seed)
    series = rk.TimeSeries(np.tanh(np.cumsum(rng.standard_normal((60, n)), axis=0)))
    model = rk.train_autoregressive(series, rk.EmbeddingConfig(L=L, p=p),
                                    rk.SolverConfig(delta=1e-8, epsilon=1e-8))
    window = rk.delay_embed(series, L, series.T)
    rollout = rk.forecast(model, window, 3, guard_factor=1e300).values
    for step in range(3):
        window, selected = rk.transform(model, window)
        assert rollout[step].tobytes() == selected.tobytes()


@pytest.fixture(scope="module")
def document(workdir):
    """The text of a trained model's saved document."""
    model = rk.train_autoregressive(
        rk.TimeSeries(np.cos(0.3 * np.arange(40.0))[:, None] * [1.0, 0.5]),
        rk.EmbeddingConfig(L=2, p=2), rk.SolverConfig(delta=1e-9, epsilon=1e-9),
    )
    rk.save_model(model, workdir / "trained.json")
    return (workdir / "trained.json").read_text()


json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), finite, st.text(max_size=4),
        st.sampled_from([-10**400, 10**400]),  # integers too large for a float
    ),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


def _paths(node, prefix=()):
    """Every position in a JSON document: the root, each key, each list item."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_document_loads_or_fails_cleanly(data, document, workdir):
    """Replace or drop one position of a saved document: loading it and a
    one-step forecast either succeed or raise RRCError."""
    doc = json.loads(document)
    path = data.draw(st.sampled_from(list(_paths(doc))))
    drop = len(path) > 0 and data.draw(st.booleans())
    value = None if drop else data.draw(json_values)
    if not path:
        doc = value
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if drop:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    fuzzed = workdir / "fuzzed.json"
    fuzzed.write_text(json.dumps(doc))
    try:
        model = rk.load_model(fuzzed)
        rk.forecast(model, np.ones(model.n * model.L), 1)
    except RRCError:
        pass


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_compress_inverts_decompress(data):
    """Broadcasting w over its groups and averaging them again returns w bit for
    bit, signed zeros and the largest and smallest floats included."""
    n, L, p = (data.draw(st.integers(1, 3)) for _ in range(3))
    R = rk.compression_matrix(n, L, p)
    w = data.draw(hnp.arrays(np.float64, (R.rows,), elements=finite))
    assert rk.compress(R, rk.decompress(R, w)).tobytes() == w.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(x=hnp.arrays(np.float64, st.integers(1, 4), elements=st.floats(width=64)),
       p=st.integers(1, 4))
def test_eth_map_stacks_the_kronecker_powers(x, p):
    """eth_map is [kron_power(x, 1); ...; kron_power(x, p); 1] bit for bit,
    through overflow to inf and NaN products as well."""
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = np.concatenate([kron_power(x, q) for q in range(1, p + 1)] + [[1.0]])
        assert rk.eth_map(x, p).tobytes() == stacked.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(x=hnp.arrays(np.float64, st.integers(1, 5), elements=st.floats(width=64)),
       p=st.integers(1, 4))
def test_monomial_features_are_the_distinct_kronecker_entries(x, p):
    """The prefix-product recurrence gives each group's Kronecker entry bit for
    bit, through overflow to inf and NaN products as well."""
    groups = rk.compression_matrix(1, x.size, p).groups
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = np.concatenate([kron_power(x, q) for q in range(1, p + 1)] + [[1.0]])
        first = stacked[[g[0] for g in groups]]
        assert rk.monomial_features(x, p).tobytes() == first.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_residual_certificate_on_random_spectra(data):
    """Criterion 1's family: a spectrum with r values above 2 * delta and the
    rest below delta / 2. The solver finds rank r, keeps at most r nonzeros
    per column, and each residual stays within its column's bound."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m, n = data.draw(st.integers(5, 50)), data.draw(st.integers(5, 50))
    k = min(m, n)
    r = data.draw(st.integers(1, k - 1))
    delta = data.draw(st.sampled_from([1e-6, 1e-2, 0.5]))
    epsilon = data.draw(st.sampled_from([1e-12, 1e-6]))
    A = matrix_with_spectrum(rng, m, n, straddling_spectrum(rng, k, delta, r))
    Y = rng.standard_normal((m, data.draw(st.integers(1, 5))))
    sol = rk.sparse_lstsq(A, Y, rk.SolverConfig(delta=delta, epsilon=epsilon))
    assert sol.rank == r
    assert np.count_nonzero(sol.X, axis=0).max() <= r
    residuals = [float(_column_norms(A @ sol.X[:, j] - Y[:, j])) for j in range(Y.shape[1])]
    assert all(res <= bound for res, bound in zip(residuals, sol.column_bounds))
