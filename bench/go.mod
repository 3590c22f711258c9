module titant/bench

go 1.24

require titant v0.0.0

replace titant => ../
