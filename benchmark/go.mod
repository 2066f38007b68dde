module vxa/benchmark

go 1.22

require vxa v0.0.0

replace vxa => ../
