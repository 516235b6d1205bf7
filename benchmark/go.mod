module ssync/benchmark

go 1.21

require ssync v0.0.0

replace ssync => ../
