module bitswapmon/bench

go 1.24

require bitswapmon v0.0.0

replace bitswapmon => ../
