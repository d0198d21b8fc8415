module phloem/benchmark

go 1.22

require phloem v0.0.0

replace phloem => ../
