"""Every test runs on the BLAS setting that loorisk commands use: numpy's and
scipy's OpenBLAS at one thread each, as cli.main pins them at its start."""

from loorisk import solver

solver._pin_blas({"numpy": 1, "scipy": 1})
