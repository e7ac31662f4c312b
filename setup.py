"""Setup shim for environments where PEP 517 editable installs are unavailable.

Still needed.  Tried without it, offline, in a ``--system-site-packages``
venv (pip 23.2.1, setuptools 65.5.0, no ``wheel`` package):

    pip install -e . --no-build-isolation --no-deps --no-index
    ...
    error: invalid command 'bdist_wheel'
    error: metadata-generation-failed

The PEP 660 editable build goes through ``bdist_wheel``, which a bare
setuptools does not have; ``python setup.py develop`` needs nothing else
and is the Makefile's fallback.
"""
from setuptools import setup

setup()
