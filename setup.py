"""Package metadata.  ``numpy`` and ``scipy`` are hard requirements:
``repro.sparse.spmm`` and ``repro.sparse.spgemm`` run on ``scipy.sparse``'s
compiled CSR kernels, and ``CSRMatrix``'s row gather, element-wise add and
NORM's row sums call three of its compiled routines
(``scipy.sparse._sparsetools``: ``csr_row_index``, ``csr_plus_csr``,
``csr_matvec``) directly.  There is no numpy fallback (it would be a second
set of bits)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy", "scipy"],
)
