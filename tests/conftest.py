"""Oracles shared by the test modules."""

import numpy as np
import pytest

from combgas import families, secular, thermo


def _lanczos_top(mat, tol=1e-13):
    """The largest eigenvalue of the sparse symmetric `mat`: ARPACK Lanczos
    (`eigsh`) on mat + s I, s the largest absolute row sum, so that a
    bipartite -lambda cannot compete at the top; dense below 9 rows, where
    ARPACK cannot take one eigenvalue.  It knows nothing of the blocks."""
    from scipy.sparse import identity
    from scipy.sparse.linalg import eigsh

    size = mat.shape[0]
    if size <= 8:
        return float(np.linalg.eigvalsh(mat.toarray())[-1])
    shift = float(abs(mat).sum(axis=1).max())
    vals = eigsh(mat + shift * identity(size), k=1, which="LA",
                 v0=np.ones(size), tol=tol, maxiter=100000)[0]
    return float(vals[0]) - shift


@pytest.fixture
def lanczos_top():
    return _lanczos_top


@pytest.fixture(autouse=True)
def _no_kept_volumes():
    """Each test starts with no comb volume kept (`families.comb_volume`),
    no secular solution (`secular.solve_secular`) and no transience verdict
    (`thermo.transience`), so it solves, builds and chunks its volumes and
    solves its infinite systems itself."""
    families._kept_volume.cache_clear()
    secular._solve_entry.cache_clear()
    thermo._classify.cache_clear()
