"""Wave-packet probing of a potential on the causal diamond.

Modules:
    geometry  -- Lorentzian metrics, null geodesics, causal structure
    exprs     -- small expression grammar for potential fields
    fermi     -- parallel frames and Fermi charts along null geodesics
    go        -- geometric-optics packets (flat background)
    beam      -- Gaussian beams (curved background)
    solver    -- finite-difference wave solver, sources, snapshots
    sources   -- cutoff surgery, covector quads, returning geodesics
    recovery  -- three-wave interaction pipeline and potential recovery
    cli       -- experiment runner (`diamondwave` console script)
"""

from . import beam, exprs, fermi, geometry, go, recovery, solver, sources

__all__ = [
    "beam", "exprs", "fermi", "geometry", "go", "recovery", "solver",
    "sources",
]

__version__ = "0.1.0"
