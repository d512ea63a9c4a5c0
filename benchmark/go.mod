module dpn/benchmark

go 1.22

require dpn v0.0.0

replace dpn => ../
