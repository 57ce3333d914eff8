"""Exact arithmetic for three-block exceptional collections on Del Pezzo surfaces.

Each name lives in one module and is imported from there, for example
``from triblock.kclass import chi``; importing a module loads only the
layers it is built on.
"""

__version__ = "0.1.0"
