"""Egocentric 3D hand-reach trajectory forecasting at desk scale.

Modules:

- ``autodiff``   dense tensors, one dtype per graph, with reverse-mode differentiation
- ``geometry``   pinhole projection and camera pose chains
- ``annotate``   least-squares depth repair
- ``model``      the masked state-space transformer forecaster
- ``losses``     uncertainty-aware and velocity training losses
- ``datagen``    synthetic egocentric-reach dataset generator and wire format
- ``trainer``    normalization, optimization loop, ADE/FDE evaluation
- ``cli``        command-line entry point (``reachcast``)
"""

__version__ = "0.1.0"
