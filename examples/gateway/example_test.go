package main

// Example runs the example and pins its standard output.
func Example() {
	main()
	// Output:
	// Part 1 — routing policy head-to-head (same trace, same fleet):
	//   policy                      p50          p99
	//   least-loaded            6.179ms     42.372ms
	//   predicted-latency     656.748µs     18.322ms
	//
	// Part 2 — tenant-0 floods; token-bucket admission (260 req/s each):
	//   admission  tenant              p99       shed
	//   off        tenant-0       19.736ms          0
	//   off        tenant-1       11.971ms          0
	//   off        tenant-2       20.791ms          0
	//   on         tenant-0       10.296ms        304
	//   on         tenant-1       10.296ms          0
	//   on         tenant-2       11.870ms          0
	//   (client saw 304 typed gateway.ErrTenantShed failures)
}
