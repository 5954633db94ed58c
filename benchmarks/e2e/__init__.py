"""One event-to-emission benchmark for the Seraph engine (README.md here)."""
