module github.com/remi-kb/remi/benchmark

go 1.24

require github.com/remi-kb/remi v0.0.0

replace github.com/remi-kb/remi => ../
