"""Cooperative adversarial bandits on communication graphs.

Agents on a connected graph pull arms and tell their neighbors what they
saw once per round.  A few centers run importance-weighted exponential
updates; every other agent replays a nearby center's distribution a few
rounds late.  Modules: ``graph``, ``exp3`` (the update rule),
``partition`` (center elections), ``losses`` (the oblivious loss
processes), ``simulate`` and ``cli``.
"""

__version__ = "0.1.0"
