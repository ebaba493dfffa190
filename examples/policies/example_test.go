package main

// Example runs the example and pins its standard output.
func Example() {
	main()
	// Output:
	// policy     resnet18 p99 squeezenet1.1 p99  inceptionv3 p99
	// FIFO          187.096ms        193.507ms        239.014ms
	// SJF             6.201ms         10.160ms        325.155ms
	// SRPT            6.187ms         11.016ms        253.990ms
	// RR            192.737ms        208.039ms        270.159ms
	//
	// SRPT/SJF protect the small models' tail; RR and FIFO let long jobs
	// block them — all with identical hardware, only the software policy
	// differs (paper §6, Figure 11).
}
