"""Privacy-preserving PV load-following toolkit.

Carves a Laplace noise signal out of a solar PV trace, forms the net
reference, and dispatches a fleet of on/off HVAC loads with receding-horizon
mixed-integer optimization so the aggregate tracks the reference while every
indoor temperature stays inside the comfort band.

Each name is imported from its own module, such as `dpdispatch.cli` or
`dpdispatch.traces`; the package itself defines only `__version__`.
"""

__version__ = "0.1.0"
