"""Reference implementations the shipped fast paths are tested against."""
