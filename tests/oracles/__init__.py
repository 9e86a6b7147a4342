"""Frozen reference implementations the bit-identity tests compare against."""
