module ndnprivacy/bench

go 1.22

require ndnprivacy v0.0.0

replace ndnprivacy => ../
