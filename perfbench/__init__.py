"""The repository benchmark: shipped scenarios timed end to end and by layer."""
