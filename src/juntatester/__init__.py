"""Exactly simulated quantum distribution-free k-junta tester."""
