module hamband/benchmark

go 1.22

require hamband v0.0.0

replace hamband => ../
