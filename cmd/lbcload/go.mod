module lbc/cmd/lbcload

go 1.22

require lbc v0.0.0

replace lbc => ../..
