module hmmer3gpu/benchmark

go 1.22

require hmmer3gpu v0.0.0

replace hmmer3gpu => ../
