"""TimeTrail: temporal context for transaction streams.

Enriches raw transactions with rolling temporal attributes, tracks how those
attributes co-move over time, trains an interpretable boosted classifier
against a logistic baseline, and explains every flag as the sequence of
decisions that produced it.
"""

__version__ = "0.1.0"
