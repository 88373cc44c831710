"""Test set-up for the benchmark harness: measure the checkout's sources."""

import libpath

libpath.use_checkout_library()
