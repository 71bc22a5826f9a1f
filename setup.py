"""Package metadata.  ``numpy`` and ``scipy`` are hard requirements:
``repro.sparse.spmm`` runs on ``scipy.sparse``'s compiled CSR kernel and
there is no numpy fallback (it would be a second set of bits)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy", "scipy"],
)
