"""Numerical laboratory for a small rigid body in a 2D perfect fluid.

The package simulates the body-fluid system at finite body size eps in the
body frame, the limiting point-vortex system, and the bookkeeping needed to
compare the two: conservation laws, force expansions in eps, the normal form
of the body equations, and trajectory convergence as eps shrinks.
"""
