"""Fairness-aware federated learning over overlapping graph partitions."""
