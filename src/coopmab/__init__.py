"""Cooperative adversarial bandits on communication graphs.

Agents sit on the nodes of a connected graph, pull arms, and share what
they saw with their neighbors once per round.  A small set of centers
runs importance-weighted exponential updates over pooled observations;
everyone else replays the distribution of a nearby center after a short
relay delay.  The modules cover the graph machinery (``graph``), the
update rule (``exp3``), the center election with and without knowledge
of the graph (``partition``), the round-by-round simulation
(``simulate``), and a CLI harness for sweeps (``cli``).
"""

__version__ = "0.1.0"
