module grover/bench

go 1.22

require grover v0.0.0

replace grover => ../
