"""Exact symmetric (Hochschild) cohomology of cocommutative Hopf algebras.

The package root exports nothing: import the submodules by name.
"""
