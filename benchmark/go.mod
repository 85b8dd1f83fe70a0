module vxq/benchmark

go 1.22

require vxq v0.0.0

replace vxq => ../
