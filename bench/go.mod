module acquire/bench

go 1.22

require acquire v0.0.0

replace acquire => ../
