"""Wire-to-wire vBGP benchmark (see README.md in this directory)."""
