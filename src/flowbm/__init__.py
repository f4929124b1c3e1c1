"""Training engine and evaluation harness for binary Boltzmann machines
driven by probability-flow gradients inside a variational EM loop."""
