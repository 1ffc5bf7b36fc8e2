module mpi4spark/bench

go 1.22

require mpi4spark v0.0.0

replace mpi4spark => ../
