module github.com/ddnn/ddnn-go/benchmark

go 1.22

require github.com/ddnn/ddnn-go v0.0.0

replace github.com/ddnn/ddnn-go => ../
