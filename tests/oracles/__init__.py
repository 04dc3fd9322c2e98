"""Reference implementations the library is checked against.

Skeen's total-order multicast, view synchrony and a message-driven
replicated state machine over them: the from-scratch protocol stack of
Crucial §4.1.  The DSO replicates through ``DsoNode.replicate``, a
calibrated cost model of the same round; ``tests/dso/test_smr_properties.py``
runs both on the same op plans and holds them to the same properties.
"""
