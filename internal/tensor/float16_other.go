//go:build !amd64

package tensor

// No F16C kernels off amd64: the portable conversion does every element.

func putFloat16sF16C([]byte, []float32) int { return 0 }

func getFloat16sF16C([]float32, []byte) int { return 0 }

func roundFloat16sF16C(_, _ []float32) int { return 0 }
