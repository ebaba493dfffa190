package main

// Example runs the example and pins its standard output.
func Example() {
	main()
	// Output:
	// request 1 completed as 1 in 2.231ms
	// request 2 completed as 2 in 2.231ms
	// request 3 completed as 3 in 2.231ms
	// request 4 completed as 4 in 2.231ms
	// request 5 completed as 5 in 2.231ms
	//
	// throughput: 448.2 req/s   p99: 2.230ms   GPU util: 9.6%   client CPU: 0.6%
}
