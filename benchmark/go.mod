module partree/benchmark

go 1.22

require partree v0.0.0

replace partree => ../
