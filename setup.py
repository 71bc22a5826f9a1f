"""Package metadata.  ``numpy`` and ``scipy`` are hard requirements:
``repro.sparse.spgemm``, ``repro.sparse.spmm``, ``CSRMatrix``'s build, row
gather and element-wise add and NORM's row sums call ``scipy.sparse``'s
compiled CSR routines (``scipy.sparse._sparsetools``) directly.  There is no numpy fallback (it
would be a second set of bits)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy", "scipy"],
)
