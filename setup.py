"""Setuptools shim for legacy editable installs (offline environment)."""

from setuptools import setup

setup(install_requires=["numpy"])
